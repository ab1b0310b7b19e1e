package mass

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"vamana/internal/flex"
	"vamana/internal/xmark"
	"vamana/internal/xmldoc"
)

// reopenFileStore loads src into a file store at a fresh path, closes it
// and reopens it with the given page budget, so that nothing is resident.
func reopenFileStore(t *testing.T, src string, cachePages int) (*Store, DocID) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "frames.vam")
	s, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	loadDoc(t, s, "auction", src)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(Options{Path: path, CachePages: cachePages}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	d, ok := s.DocID("auction")
	if !ok {
		t.Fatal("document missing after reopen")
	}
	return s, d
}

var wildcard = NodeTest{Type: TestWildcard}

// TestFileStoreResidencyBounded drains //* and then looks every element
// up by key (the Tree.View path) on a file store whose cache holds 32
// pages: however many pages the reads touch, at most 32 clean frames
// stay resident.
func TestFileStoreResidencyBounded(t *testing.T) {
	const budget = 32
	s, d := reopenFileStore(t, xmark.GenerateString(xmark.Config{Factor: 0.01, Seed: 3}), budget)
	elems := collect(t, s.AxisScan(d, flex.Root, AxisDescendant, wildcard))
	for _, n := range elems {
		if _, ok, err := s.Node(d, n.Key); err != nil || !ok {
			t.Fatalf("Node(%q) = %v, %v", n.Key, ok, err)
		}
	}
	m := s.Metrics()
	t.Logf("%d elements, %d page loads, %d evictions, %d frames resident of %d pages",
		len(elems), m.Index.CacheMisses, m.Index.CacheEvictions, m.Pager.Cached, m.Pager.Pages)
	if m.Index.CacheMisses <= budget {
		t.Fatalf("the reads loaded %d pages: too few to test a %d-page bound", m.Index.CacheMisses, budget)
	}
	if m.Pager.Cached > budget || m.Index.CacheEvictions == 0 {
		t.Errorf("%d frames resident after %d evictions, want at most %d", m.Pager.Cached, m.Index.CacheEvictions, budget)
	}
}

// TestCommitSnapshotReparsesOnlyChangedPages: after a commit, the view it
// publishes decodes no more pages than the commit wrote — every other
// page is the frame the previous view already decoded.
func TestCommitSnapshotReparsesOnlyChangedPages(t *testing.T) {
	s, d := reopenFileStore(t, xmark.GenerateString(xmark.Config{Factor: 0.01, Seed: 5}), 0)
	drain := func() (n int, misses uint64) {
		v, err := s.Pin()
		if err != nil {
			t.Fatal(err)
		}
		defer v.Unpin()
		var tl Tally
		sc := v.AxisScan(d, flex.Root, AxisDescendant, wildcard)
		sc.SetTally(&tl)
		return len(collect(t, sc)), tl.Index.CacheMisses
	}
	n1, cold := drain()

	writes := s.Metrics().Pager.Writes
	if err := update(s, func(u *Update) error {
		_, err := u.InsertElement(d, flex.Root.Child(flex.Ordinal(0)), -1, "extra")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	changed := s.Metrics().Pager.Writes - writes
	n2, warm := drain()
	t.Logf("cold drain decoded %d pages; the commit wrote %d; the next view's drain decoded %d", cold, changed, warm)
	if n2 != n1+1 {
		t.Fatalf("second drain saw %d elements, want %d", n2, n1+1)
	}
	if cold <= changed {
		t.Fatalf("cold drain decoded %d pages, the commit wrote %d: too few to tell", cold, changed)
	}
	if warm > changed {
		t.Errorf("the commit's view decoded %d pages, more than the %d the commit changed", warm, changed)
	}
}

// TestSnapshotReadersShareFrames runs readers of pinned views against a
// committing writer — on a file store with a 16-page cache, whose
// frames are evicted and reloaded under them, and in memory. Every
// reader decodes into frames the writer's trees and the other views
// share, and each must still see exactly its own version: the view
// published k commits after the load holds k extra elements. Run with
// -race.
func TestSnapshotReadersShareFrames(t *testing.T) {
	src := xmark.GenerateString(xmark.Config{Factor: 0.002, Seed: 9})
	for _, mode := range []string{"memory", "file"} {
		t.Run(mode, func(t *testing.T) {
			var s *Store
			var d DocID
			if mode == "memory" {
				s = openMem(t)
				d = loadDoc(t, s, "auction", src)
			} else {
				s, d = reopenFileStore(t, src, 16)
			}
			base := len(collect(t, s.AxisScan(d, flex.Root, AxisDescendant, wildcard)))
			version0 := cur(s).Version()
			const commits, readers = 30, 3
			var wg sync.WaitGroup
			errs := make(chan error, readers+1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < commits; i++ {
					u, err := s.BeginUpdate()
					if err != nil {
						errs <- err
						return
					}
					if _, err := u.InsertElement(d, flex.Root.Child(flex.Ordinal(0)), -1, "extra"); err != nil {
						u.Rollback()
						errs <- err
						return
					}
					epoch, err := u.Commit()
					if err == nil {
						err = s.SyncCommitted(epoch)
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}()
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 2*commits; i++ {
						st, err := s.Pin()
						if err != nil {
							errs <- err
							return
						}
						k := int(st.Version() - version0)
						all, extra := 0, 0
						keys, err := drainAll(st.AxisScan(d, flex.Root, AxisDescendant, wildcard))
						for _, key := range keys {
							var n xmldoc.Node
							if n, _, err = st.Node(d, key); err != nil {
								break
							}
							all++
							if n.Name == "extra" {
								extra++
							}
						}
						st.Unpin()
						if err == nil && (all != base+k || extra != k) {
							err = fmt.Errorf("snapshot %d commits in: %d elements, %d extra; want %d and %d", k, all, extra, base+k, k)
						}
						if err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}
