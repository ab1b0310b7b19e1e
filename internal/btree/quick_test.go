package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"vamana/internal/pager"
)

// TestQuickInsertedKeysRetrievable: any set of key/value pairs inserted
// into the tree can be retrieved, and iteration yields them in sorted
// order with the latest value per key.
func TestQuickInsertedKeysRetrievable(t *testing.T) {
	f := func(pairs map[string]string) bool {
		tr, err := New(pager.NewMemory())
		if err != nil {
			return false
		}
		for k, v := range pairs {
			if len(k) > maxKeySize {
				continue
			}
			if _, err := tr.Put([]byte(k), []byte(v)); err != nil {
				return false
			}
		}
		for k, v := range pairs {
			if len(k) > maxKeySize {
				continue
			}
			got, ok, err := tr.Get([]byte(k))
			if err != nil || !ok || string(got) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickIterationSorted: for random keys, the in-order scan is exactly
// the sorted, deduplicated key list.
func TestQuickIterationSorted(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, err := New(pager.NewMemory())
		if err != nil {
			return false
		}
		keys := map[string]bool{}
		for i := 0; i < int(n)+1; i++ {
			k := fmt.Sprintf("%x", rng.Int63n(1<<20))
			keys[k] = true
			if _, err := tr.Put([]byte(k), nil); err != nil {
				return false
			}
		}
		want := make([]string, 0, len(keys))
		for k := range keys {
			want = append(want, k)
		}
		sort.Strings(want)
		c := tr.NewCursor()
		i := 0
		for ok := c.SeekFirst(); ok; ok = c.Next() {
			if i >= len(want) || string(c.Key()) != want[i] {
				return false
			}
			i++
		}
		return i == len(want) && c.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRangeCount: Count(lo, hi) equals the brute-force count for
// arbitrary bounds over random key sets — the invariant VAMANA's whole
// cost model leans on.
func TestQuickRangeCount(t *testing.T) {
	f := func(seed int64, n uint16, loRaw, hiRaw uint32) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, err := New(pager.NewMemory())
		if err != nil {
			return false
		}
		var keys []string
		for i := 0; i < int(n%2000)+1; i++ {
			k := fmt.Sprintf("%08x", rng.Uint32())
			keys = append(keys, k)
			if _, err := tr.Put([]byte(k), nil); err != nil {
				return false
			}
		}
		lo := fmt.Sprintf("%08x", loRaw)
		hi := fmt.Sprintf("%08x", hiRaw)
		if lo > hi {
			lo, hi = hi, lo
		}
		want := map[string]bool{}
		for _, k := range keys {
			if k >= lo && k < hi {
				want[k] = true
			}
		}
		got, err := tr.Count([]byte(lo), []byte(hi))
		return err == nil && got == uint64(len(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDeleteConsistency: after random inserts and deletes the tree
// matches a map model exactly (length, membership, order).
func TestQuickDeleteConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, err := New(pager.NewMemory())
		if err != nil {
			return false
		}
		model := map[string]bool{}
		for op := 0; op < 800; op++ {
			k := fmt.Sprintf("k%03d", rng.Intn(300))
			if rng.Intn(3) == 0 {
				removed, err := tr.Delete([]byte(k))
				if err != nil || removed != model[k] {
					return false
				}
				delete(model, k)
			} else {
				added, err := tr.Put([]byte(k), []byte(k))
				if err != nil || added == model[k] {
					return false
				}
				model[k] = true
			}
		}
		n, err := tr.Len()
		if err != nil || n != uint64(len(model)) {
			return false
		}
		c := tr.NewCursor()
		var prev []byte
		count := 0
		for ok := c.SeekFirst(); ok; ok = c.Next() {
			if prev != nil && bytes.Compare(prev, c.Key()) >= 0 {
				return false
			}
			if !model[string(c.Key())] {
				return false
			}
			prev = append(prev[:0], c.Key()...)
			count++
		}
		return count == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
