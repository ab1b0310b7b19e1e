package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"vamana/internal/pager"
)

// seekModel is the reference the positioned cursor is checked against: a
// sorted key list mirroring the tree's contents.
type seekModel struct {
	keys []string
}

func (m *seekModel) put(k string) {
	i := sort.SearchStrings(m.keys, k)
	if i < len(m.keys) && m.keys[i] == k {
		return
	}
	m.keys = append(m.keys, "")
	copy(m.keys[i+1:], m.keys[i:])
	m.keys[i] = k
}

func (m *seekModel) del(k string) {
	i := sort.SearchStrings(m.keys, k)
	if i < len(m.keys) && m.keys[i] == k {
		m.keys = append(m.keys[:i], m.keys[i+1:]...)
	}
}

// TestPositionedSeekEqualsFreshSeek is the property behind the positioned
// re-seek: whatever leaf one long-lived cursor happens to rest on, its
// Seek lands exactly where a brand-new cursor's Seek does — same found
// flag, same entry, same neighbours in both directions — for targets that
// walk forward, walk backward, jump across leaves, hit keys exactly, fall
// between keys and fall off either end, with Next/Prev/ScanBatch moving
// the cursor in between and with Put/Delete (splits included) mutating
// the tree in between, which by the documented rule voids the held leaf.
// It runs on a memory pager and on a file pager whose frame cache holds
// 16 pages and whose tree is flushed to disk between seeks, so held
// leaves are also evicted and re-read behind the cursor's back.
func TestPositionedSeekEqualsFreshSeek(t *testing.T) {
	for _, backing := range []string{"memory", "file"} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", backing, seed), func(t *testing.T) {
				var pg *pager.Pager
				if backing == "memory" {
					pg = pager.NewMemory()
				} else {
					var err error
					if pg, err = pager.Open(filepath.Join(t.TempDir(), "seek.db")); err != nil {
						t.Fatal(err)
					}
					defer pg.Close()
					pg.SetCachePages(16)
				}
				tr, err := New(pg)
				if err != nil {
					t.Fatal(err)
				}
				checkPositionedSeek(t, tr, pg, rand.New(rand.NewSource(seed)))
				if m := pg.Metrics(); !pg.InMemory() && (m.Evictions == 0 || m.Cached > 16) {
					t.Errorf("file pager: %d evictions, %d frames cached; want evictions and at most 16", m.Evictions, m.Cached)
				}
			})
		}
	}
}

func checkPositionedSeek(t *testing.T, tr *Tree, pg *pager.Pager, rng *rand.Rand) {
	t.Helper()
	model := &seekModel{}
	key := func(n int) string { return fmt.Sprintf("k%07d", n) }
	const space = 40000
	val := bytes.Repeat([]byte("v"), 24)
	put := func(k string) {
		if _, err := tr.Put([]byte(k), val); err != nil {
			t.Fatal(err)
		}
		model.put(k)
	}
	// Every eighth number, so most targets fall between keys; ~20 leaves.
	for n := 0; n < space; n += 8 {
		put(key(n))
	}

	pos := tr.NewCursor()
	last := space / 2
	for step := 0; step < 4000; step++ {
		// Choose the next target relative to the previous one.
		var target string
		switch rng.Intn(10) {
		case 0, 1, 2: // forward walk, short strides
			last += 1 + rng.Intn(40)
			target = key(last)
		case 3, 4: // backward walk
			last -= 1 + rng.Intn(40)
			target = key(last)
		case 5: // jump across leaves
			last = rng.Intn(space)
			target = key(last)
		case 6: // an existing key, exactly
			target = model.keys[rng.Intn(len(model.keys))]
		case 7: // the same target again
			target = key(last)
		case 8: // before the first key
			target = "a"
		default: // past the last key
			target = "z"
		}
		if last < 0 || last >= space {
			last = rng.Intn(space)
		}

		fresh := tr.NewCursor()
		wantOK := fresh.Seek([]byte(target))
		gotOK := pos.Seek([]byte(target))
		if i := sort.SearchStrings(model.keys, target); wantOK != (i < len(model.keys)) ||
			(wantOK && string(fresh.Key()) != model.keys[i]) {
			t.Fatalf("step %d: fresh Seek(%q) disagrees with the model", step, target)
		}
		if gotOK != wantOK || pos.Err() != nil || fresh.Err() != nil {
			t.Fatalf("step %d: positioned Seek(%q) = %v (err %v), fresh = %v (err %v)",
				step, target, gotOK, pos.Err(), wantOK, fresh.Err())
		}
		if gotOK {
			if !bytes.Equal(pos.Key(), fresh.Key()) {
				t.Fatalf("step %d: positioned Seek(%q) on %q, fresh on %q", step, target, pos.Key(), fresh.Key())
			}
			// The neighbourhood must agree too: a wrong leaf or index
			// with the right key would show on the walk.
			walk := (*Cursor).Next
			if rng.Intn(2) == 0 {
				walk = (*Cursor).Prev
			}
			for n := rng.Intn(6); n > 0; n-- {
				a, b := walk(pos), walk(fresh)
				if a != b || (a && !bytes.Equal(pos.Key(), fresh.Key())) {
					t.Fatalf("step %d: walk after Seek(%q) diverged: %v %q vs %v %q",
						step, target, a, pos.Key(), b, fresh.Key())
				}
				if !a {
					break
				}
			}
		}

		// Move the cursor or mutate the tree before the next seek.
		switch rng.Intn(13) {
		case 0: // bulk advance: ScanBatch rests after the last visited entry
			if pos.Valid() {
				n := rng.Intn(400)
				pos.ScanBatch(nil, false, func(k, v []byte) bool { n--; return n > 0 })
			}
		case 1: // insert a run of fresh keys into one region: splits leaves
			base := rng.Intn(space)
			for i := 0; i < 1+rng.Intn(300); i++ {
				put(key(base+i) + fmt.Sprintf(".%03d", rng.Intn(1000)))
			}
		case 2: // delete a run
			i := rng.Intn(len(model.keys))
			for n := 1 + rng.Intn(200); n > 0 && i < len(model.keys) && len(model.keys) > 64; n-- {
				k := model.keys[i]
				if _, err := tr.Delete([]byte(k)); err != nil {
					t.Fatal(err)
				}
				model.del(k)
			}
		case 3: // a lone put or delete right where the cursor stands
			if pos.Valid() {
				k := string(pos.Key())
				if rng.Intn(2) == 0 && len(model.keys) > 64 {
					if _, err := tr.Delete([]byte(k)); err != nil {
						t.Fatal(err)
					}
					model.del(k)
				} else {
					put(k + ".x")
				}
			}
		case 4: // make every edit durable: on a file pager the flushed
			// pages join the frame cache and push held ones out
			if err := tr.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := pg.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPositionedSeekStaysOnLeaf pins the mechanism itself, not just its
// result: ascending seeks inside one leaf load no node after the first
// descent, a target outside the held leaf descends again, and a Put voids
// the held leaf.
func TestPositionedSeekStaysOnLeaf(t *testing.T) {
	tr, err := New(pager.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 5000; n++ {
		if _, err := tr.Put([]byte(fmt.Sprintf("k%05d", n)), nil); err != nil {
			t.Fatal(err)
		}
	}
	c := tr.NewCursor()
	var m Metrics // what c counted
	loads := func() uint64 { m.Add(c.TakeMetrics()); return m.CacheHits + m.CacheMisses }
	c.Seek([]byte("k00010"))
	base := loads()
	for n := 11; n < 60; n++ {
		if !c.Seek([]byte(fmt.Sprintf("k%05d", n))) {
			t.Fatalf("seek %d found nothing", n)
		}
	}
	c.Seek([]byte("k00020")) // backwards, same leaf
	if d := loads() - base; d != 0 {
		t.Errorf("in-leaf seeks loaded %d nodes, want 0", d)
	}
	c.Seek([]byte("k04000"))
	if d := loads() - base; d == 0 {
		t.Error("a seek outside the held leaf loaded no node: it cannot have descended")
	}
	if _, err := tr.Put([]byte("k04000.x"), nil); err != nil {
		t.Fatal(err)
	}
	base = loads()
	c.Seek([]byte("k04001"))
	if d := loads() - base; d == 0 {
		t.Error("a seek after Put reused the held leaf")
	}
	if m.Add(c.TakeMetrics()); m.Seeks != 53 {
		t.Errorf("Metrics.Seeks = %d, want 53: every Seek call counts, positioned or not", m.Seeks)
	}
}
