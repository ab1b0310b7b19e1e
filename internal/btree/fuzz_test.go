package btree

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"vamana/internal/pager"
	"vamana/internal/pager/faultfs"
)

// FuzzTreeOps drives a tree with a byte-coded sequence of Put, Delete,
// Seek, ScanBatch, Count and Flush calls and checks every answer against
// a sorted-map model. Each operation takes three bytes: the operation,
// then two that pick a key (one of 256, with lengths up to ~500 bytes so
// that leaves and branches split within a few hundred operations) and a
// value length (some spill to overflow pages). Every input runs twice:
// on a memory pager, and on a file pager with a 16-frame cache, where
// each Flush makes the pages durable so that later loads evict frames
// mid-cursor and mid-split.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 3, 4, 3, 1, 0, 4, 0, 255, 5, 0, 9})
	f.Add(bytes.Repeat([]byte{0, 7, 200, 1, 9, 31, 2, 7, 0, 3, 5, 0}, 80))
	f.Add(bytes.Repeat([]byte{64, 3, 90, 0, 250, 17, 4, 30, 220, 2, 250, 0, 6, 1, 1}, 60))
	f.Fuzz(func(t *testing.T, ops []byte) {
		file, err := pager.OpenBackend(faultfs.New())
		if err != nil {
			t.Fatal(err)
		}
		file.SetCachePages(16)
		runTreeOps(t, pager.NewMemory(), ops)
		runTreeOps(t, file, ops)
		if m := file.Metrics(); m.Cached > 16 {
			t.Fatalf("file pager holds %d clean frames, budget 16", m.Cached)
		}
	})
}

func runTreeOps(t *testing.T, pg *pager.Pager, ops []byte) {
	tr, err := New(pg)
	if err != nil {
		t.Fatal(err)
	}
	model := map[string]string{}
	key := func(b byte) []byte {
		return []byte(fmt.Sprintf("%02x%s", b, strings.Repeat("k", int(b)*2)))
	}
	sorted := func() []string {
		keys := make([]string, 0, len(model))
		for k := range model {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return keys
	}
	c := tr.NewCursor()
	for ; len(ops) >= 3; ops = ops[3:] {
		op, a, b := ops[0], ops[1], ops[2]
		k := key(a)
		switch op % 7 {
		case 0, 1: // Put
			n := int(b) * 3
			if op&0x40 != 0 {
				n = maxInlineValue + int(b)*40
			}
			v := strings.Repeat(string(rune('a'+op%26)), n)
			_, had := model[string(k)]
			added, err := tr.Put(k, []byte(v))
			if err != nil {
				t.Fatal(err)
			}
			if added == had {
				t.Fatalf("Put(%.8q) added=%v, model had it=%v", k, added, had)
			}
			model[string(k)] = v
		case 2: // Delete
			_, had := model[string(k)]
			found, err := tr.Delete(k)
			if err != nil {
				t.Fatal(err)
			}
			if found != had {
				t.Fatalf("Delete(%.8q) found=%v, model had it=%v", k, found, had)
			}
			delete(model, string(k))
		case 3: // Seek
			keys := sorted()
			i := sort.SearchStrings(keys, string(k))
			ok := c.Seek(k)
			if ok != (i < len(keys)) || (ok && string(c.Key()) != keys[i]) {
				t.Fatalf("Seek(%.8q) = %v %.8q, model %d of %d", k, ok, c.Key(), i, len(keys))
			}
			if ok {
				v, err := c.Value()
				if err != nil || string(v) != model[keys[i]] {
					t.Fatalf("Seek(%.8q) value %d bytes, %v; model %d", k, len(v), err, len(model[keys[i]]))
				}
			}
		case 4: // ScanBatch over [a, b)
			keys := sorted()
			lo, hi := string(k), string(key(b))
			var want []string
			for _, mk := range keys {
				if mk >= lo && mk < hi {
					want = append(want, mk)
				}
			}
			var got []string
			if c.Seek(k) {
				c.ScanBatch([]byte(hi), true, func(kk, v []byte) bool {
					if string(v) != model[string(kk)] {
						t.Fatalf("ScanBatch: value of %.8q is %d bytes, model %d", kk, len(v), len(model[string(kk)]))
					}
					got = append(got, string(kk))
					return true
				})
			}
			if c.Err() != nil || strings.Join(got, ",") != strings.Join(want, ",") {
				t.Fatalf("ScanBatch[%.8q, %.8q) = %d keys, model %d (%v)", lo, hi, len(got), len(want), c.Err())
			}
		case 5: // Count over [a, b)
			lo, hi := string(k), string(key(b))
			var want uint64
			for mk := range model {
				if mk >= lo && mk < hi {
					want++
				}
			}
			got, err := tr.Count([]byte(lo), []byte(hi))
			if err != nil || got != want {
				t.Fatalf("Count[%.8q, %.8q) = %d, %v; model %d", lo, hi, got, err, want)
			}
		case 6:
			if err := tr.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := pg.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	keys := sorted()
	i := 0
	for ok := c.SeekFirst(); ok; ok = c.Next() {
		if i >= len(keys) || string(c.Key()) != keys[i] {
			t.Fatalf("full scan entry %d is %.8q, model has %d keys", i, c.Key(), len(keys))
		}
		i++
	}
	if n, err := tr.Len(); err != nil || i != len(keys) || n != uint64(len(keys)) {
		t.Fatalf("full scan %d entries, Len %d (%v), model %d", i, n, err, len(keys))
	}
}
