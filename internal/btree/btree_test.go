package btree

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"vamana/internal/pager"
)

func newMemTree(t *testing.T) *Tree {
	t.Helper()
	tr, err := New(pager.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func mustPut(t *testing.T, tr *Tree, k, v string) {
	t.Helper()
	if _, err := tr.Put([]byte(k), []byte(v)); err != nil {
		t.Fatalf("Put(%q): %v", k, err)
	}
}

func TestEmptyTree(t *testing.T) {
	tr := newMemTree(t)
	if n, _ := tr.Len(); n != 0 {
		t.Fatalf("Len = %d", n)
	}
	if _, ok, _ := tr.Get([]byte("x")); ok {
		t.Fatal("Get on empty tree returned a value")
	}
	c := tr.NewCursor()
	if c.SeekFirst() {
		t.Fatal("SeekFirst on empty tree succeeded")
	}
	if c.SeekLast() {
		t.Fatal("SeekLast on empty tree succeeded")
	}
	if n, _ := tr.Count(nil, nil); n != 0 {
		t.Fatalf("Count = %d", n)
	}
}

func TestPutGetSmall(t *testing.T) {
	tr := newMemTree(t)
	mustPut(t, tr, "b", "1")
	mustPut(t, tr, "a", "2")
	mustPut(t, tr, "c", "3")
	for k, want := range map[string]string{"a": "2", "b": "1", "c": "3"} {
		v, ok, err := tr.Get([]byte(k))
		if err != nil || !ok || string(v) != want {
			t.Fatalf("Get(%q) = %q,%v,%v want %q", k, v, ok, err, want)
		}
	}
	if _, ok, _ := tr.Get([]byte("d")); ok {
		t.Fatal("Get of absent key succeeded")
	}
}

func TestPutReplace(t *testing.T) {
	tr := newMemTree(t)
	added, err := tr.Put([]byte("k"), []byte("v1"))
	if err != nil || !added {
		t.Fatalf("first Put: %v %v", added, err)
	}
	added, err = tr.Put([]byte("k"), []byte("v2"))
	if err != nil || added {
		t.Fatalf("replace Put reported added=%v err=%v", added, err)
	}
	v, _, _ := tr.Get([]byte("k"))
	if string(v) != "v2" {
		t.Fatalf("value = %q", v)
	}
	if n, _ := tr.Len(); n != 1 {
		t.Fatalf("Len = %d", n)
	}
}

func TestKeyTooLarge(t *testing.T) {
	tr := newMemTree(t)
	if _, err := tr.Put(make([]byte, maxKeySize+1), nil); err != ErrKeyTooLarge {
		t.Fatalf("err = %v", err)
	}
}

// TestLargeAscendingInsert exercises leaf and branch splits under the
// document-order bulk-load pattern.
func TestLargeAscendingInsert(t *testing.T) {
	tr := newMemTree(t)
	const n = 20000
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key%08d", i)
		mustPut(t, tr, k, fmt.Sprintf("val%d", i))
	}
	if got, _ := tr.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	// Spot check.
	for i := 0; i < n; i += 997 {
		k := fmt.Sprintf("key%08d", i)
		v, ok, err := tr.Get([]byte(k))
		if err != nil || !ok || string(v) != fmt.Sprintf("val%d", i) {
			t.Fatalf("Get(%q) = %q,%v,%v", k, v, ok, err)
		}
	}
	// Full in-order scan.
	c := tr.NewCursor()
	i := 0
	for ok := c.SeekFirst(); ok; ok = c.Next() {
		want := fmt.Sprintf("key%08d", i)
		if string(c.Key()) != want {
			t.Fatalf("scan[%d] = %q, want %q", i, c.Key(), want)
		}
		i++
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if i != n {
		t.Fatalf("scan visited %d entries, want %d", i, n)
	}
}

// TestRandomOpsAgainstModel runs a randomized sequence of Put/Delete/Get
// against a map+sorted-slice reference model, then verifies full forward
// and reverse iteration and range counts, and every page against the
// format oracle. Halfway through it pins a pager view and loads a
// read-only tree over it; that tree shares the pinned page images with
// the writer, so the writer's later edits, splits and flushes must all
// copy on write for it to still return the pinned model exactly.
func TestRandomOpsAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pg := newRecordingPages()
	tr, err := New(pg)
	if err != nil {
		t.Fatal(err)
	}
	model := map[string]string{}
	var pinned *Tree
	var pinnedModel map[string]string
	var splitsAtPin uint64
	randKey := func() string { return fmt.Sprintf("k%05d", rng.Intn(5000)) }
	for op := 0; op < 30000; op++ {
		switch {
		case op == 15000:
			if err := tr.Flush(); err != nil {
				t.Fatal(err)
			}
			view := pg.PinView()
			defer view.Close()
			if pinned, err = Load(view, tr.Root()); err != nil {
				t.Fatal(err)
			}
			pinnedModel = maps.Clone(model)
			verifyAgainstModel(t, pinned, pinnedModel) // caches every node
			splitsAtPin = tr.Metrics().Splits
		case op > 15000 && op%1000 == 0:
			if err := tr.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := pg.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5: // put
			k, v := randKey(), fmt.Sprintf("v%d", op)
			_, wasThere := model[k]
			added, err := tr.Put([]byte(k), []byte(v))
			if err != nil {
				t.Fatal(err)
			}
			if added == wasThere {
				t.Fatalf("Put(%q) added=%v but model has=%v", k, added, wasThere)
			}
			model[k] = v
		case 6, 7: // delete
			k := randKey()
			_, wasThere := model[k]
			removed, err := tr.Delete([]byte(k))
			if err != nil {
				t.Fatal(err)
			}
			if removed != wasThere {
				t.Fatalf("Delete(%q) removed=%v model had=%v", k, removed, wasThere)
			}
			delete(model, k)
		default: // get
			k := randKey()
			v, ok, err := tr.Get([]byte(k))
			if err != nil {
				t.Fatal(err)
			}
			want, wantOK := model[k]
			if ok != wantOK || (ok && string(v) != want) {
				t.Fatalf("Get(%q) = %q,%v want %q,%v", k, v, ok, want, wantOK)
			}
		}
		if op == 20000 {
			// Wide values grow leaves past a page: splits after the pin.
			for i := 0; i < 200; i++ {
				k, v := randKey(), strings.Repeat("w", 200)
				if _, err := tr.Put([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				model[k] = v
			}
		}
	}
	verifyAgainstModel(t, tr, model)
	checkAgainstOracle(t, pg, tr, model)
	if tr.Metrics().Splits == splitsAtPin {
		t.Fatal("no split after the pin")
	}
	verifyAgainstModel(t, pinned, pinnedModel)
}

func verifyAgainstModel(t *testing.T, tr *Tree, model map[string]string) {
	t.Helper()
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	if n, _ := tr.Len(); n != uint64(len(keys)) {
		t.Fatalf("Len = %d, want %d", n, len(keys))
	}
	c := tr.NewCursor()
	i := 0
	for ok := c.SeekFirst(); ok; ok = c.Next() {
		if i >= len(keys) {
			t.Fatalf("forward scan produced extra key %q", c.Key())
		}
		if string(c.Key()) != keys[i] {
			t.Fatalf("forward scan[%d] = %q, want %q", i, c.Key(), keys[i])
		}
		v, err := c.Value()
		if err != nil {
			t.Fatal(err)
		}
		if string(v) != model[keys[i]] {
			t.Fatalf("value for %q = %q, want %q", keys[i], v, model[keys[i]])
		}
		i++
	}
	if i != len(keys) {
		t.Fatalf("forward scan visited %d, want %d", i, len(keys))
	}
	// Reverse scan.
	i = len(keys) - 1
	for ok := c.SeekLast(); ok; ok = c.Prev() {
		if i < 0 {
			t.Fatalf("reverse scan produced extra key %q", c.Key())
		}
		if string(c.Key()) != keys[i] {
			t.Fatalf("reverse scan[%d] = %q, want %q", i, c.Key(), keys[i])
		}
		i--
	}
	if i != -1 {
		t.Fatalf("reverse scan stopped at %d", i)
	}
	// Range counts against brute force.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		lo := fmt.Sprintf("k%05d", rng.Intn(5200))
		hi := fmt.Sprintf("k%05d", rng.Intn(5200))
		if lo > hi {
			lo, hi = hi, lo
		}
		var want uint64
		for _, k := range keys {
			if k >= lo && k < hi {
				want++
			}
		}
		got, err := tr.Count([]byte(lo), []byte(hi))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("Count(%q,%q) = %d, want %d", lo, hi, got, want)
		}
	}
	// Unbounded counts.
	if got, _ := tr.Count(nil, nil); got != uint64(len(keys)) {
		t.Fatalf("Count(nil,nil) = %d", got)
	}
}

func TestSeekSemantics(t *testing.T) {
	tr := newMemTree(t)
	for _, k := range []string{"b", "d", "f", "h"} {
		mustPut(t, tr, k, "v")
	}
	c := tr.NewCursor()
	cases := []struct {
		target string
		want   string
		ok     bool
	}{
		{"a", "b", true}, {"b", "b", true}, {"c", "d", true},
		{"h", "h", true}, {"i", "", false},
	}
	for _, cse := range cases {
		ok := c.Seek([]byte(cse.target))
		if ok != cse.ok {
			t.Fatalf("Seek(%q) ok = %v, want %v", cse.target, ok, cse.ok)
		}
		if ok && string(c.Key()) != cse.want {
			t.Fatalf("Seek(%q) = %q, want %q", cse.target, c.Key(), cse.want)
		}
	}
	before := []struct {
		target string
		want   string
		ok     bool
	}{
		{"b", "", false}, {"c", "b", true}, {"z", "h", true}, {"h", "f", true},
	}
	for _, cse := range before {
		ok := c.SeekBefore([]byte(cse.target))
		if ok != cse.ok {
			t.Fatalf("SeekBefore(%q) ok = %v, want %v", cse.target, ok, cse.ok)
		}
		if ok && string(c.Key()) != cse.want {
			t.Fatalf("SeekBefore(%q) = %q, want %q", cse.target, c.Key(), cse.want)
		}
	}
}

func TestOverflowValues(t *testing.T) {
	tr := newMemTree(t)
	big := bytes.Repeat([]byte("xyz"), 10000) // 30 KB, spans several overflow pages
	mustPut(t, tr, "big", string(big))
	mustPut(t, tr, "small", "s")
	v, ok, err := tr.Get([]byte("big"))
	if err != nil || !ok {
		t.Fatalf("Get(big): %v %v", ok, err)
	}
	if !bytes.Equal(v, big) {
		t.Fatalf("overflow round-trip: got %d bytes, want %d", len(v), len(big))
	}
	// Replace the big value with a small one; the chain must be freed and
	// its pages recycled.
	pg := tr.pg.(*pager.Pager)
	before := pg.NumPages()
	if _, err := tr.Put([]byte("big"), []byte("now small")); err != nil {
		t.Fatal(err)
	}
	big2 := bytes.Repeat([]byte("abc"), 9000)
	mustPut(t, tr, "big2", string(big2))
	if after := pg.NumPages(); after > before+1 {
		t.Fatalf("overflow pages not recycled: %d -> %d", before, after)
	}
	v, _, _ = tr.Get([]byte("big2"))
	if !bytes.Equal(v, big2) {
		t.Fatal("big2 round-trip failed")
	}
	// Delete must also free chains.
	if removed, err := tr.Delete([]byte("big2")); err != nil || !removed {
		t.Fatalf("Delete(big2): %v %v", removed, err)
	}
	if _, ok, _ := tr.Get([]byte("big2")); ok {
		t.Fatal("big2 still present after delete")
	}
}

func TestFileBackedReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tree.vam")
	pg, err := pager.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(pg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key%06d", i*7%n) // mixed order
		if _, err := tr.Put([]byte(k), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	root := tr.Root()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := pg.Close(); err != nil {
		t.Fatal(err)
	}

	pg2, err := pager.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pg2.Close()
	tr2, err := Load(pg2, root)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := tr2.Len(); got != n {
		t.Fatalf("reopened Len = %d, want %d", got, n)
	}
	c := tr2.NewCursor()
	count := 0
	prev := []byte(nil)
	for ok := c.SeekFirst(); ok; ok = c.Next() {
		if prev != nil && bytes.Compare(prev, c.Key()) >= 0 {
			t.Fatalf("keys out of order after reopen: %q then %q", prev, c.Key())
		}
		prev = append(prev[:0], c.Key()...)
		count++
	}
	if count != n {
		t.Fatalf("reopened scan = %d entries, want %d", count, n)
	}
}

// TestCacheEviction forces the pager's frame cache to churn under a
// file-backed tree with a budget of 8 pages: puts, gets, counts and a
// cursor walk all load evicted pages again, and the cache never holds
// more than its budget.
func TestCacheEviction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "evict.vam")
	pg, err := pager.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Close()
	pg.SetCachePages(8)
	tr, err := New(pg)
	if err != nil {
		t.Fatal(err)
	}
	flush := func() {
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := pg.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	const n = 8000
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key%06d", i*13%n)
		if _, err := tr.Put([]byte(k), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		if i%1000 == 999 {
			flush()
		}
	}
	if got, _ := tr.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	for i := 0; i < n; i += 501 {
		k := fmt.Sprintf("key%06d", i)
		if _, ok, err := tr.Get([]byte(k)); err != nil || !ok {
			t.Fatalf("Get(%q) after eviction churn: %v %v", k, ok, err)
		}
	}
	if got, err := tr.Count([]byte("key000000"), []byte("key004000")); err != nil || got != 4000 {
		t.Fatalf("Count = %d, %v", got, err)
	}
	c := tr.NewCursor()
	got := 0
	for ok := c.SeekFirst(); ok; ok = c.Next() {
		if want := fmt.Sprintf("key%06d", got); string(c.Key()) != want {
			t.Fatalf("scan entry %d = %q, want %q", got, c.Key(), want)
		}
		got++
	}
	if c.Err() != nil || got != n {
		t.Fatalf("scan = %d entries (%v), want %d", got, c.Err(), n)
	}
	if m := pg.Metrics(); m.Evictions == 0 || m.Cached > 8 {
		t.Errorf("pager: %d evictions, %d frames cached; want evictions and at most 8", m.Evictions, m.Cached)
	}
}

func TestRankBoundaries(t *testing.T) {
	tr := newMemTree(t)
	for i := 0; i < 1000; i++ {
		mustPut(t, tr, fmt.Sprintf("k%04d", i), "v")
	}
	cases := []struct {
		key  string
		want uint64
	}{
		{"k0000", 0}, {"k0001", 1}, {"k0500", 500}, {"k0999", 999}, {"k9999", 1000}, {"a", 0},
	}
	for _, c := range cases {
		got, err := tr.NewCursor().Rank([]byte(c.key))
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Fatalf("Rank(%q) = %d, want %d", c.key, got, c.want)
		}
	}
}

func BenchmarkPutAscending(b *testing.B) {
	tr, _ := New(pager.NewMemory())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := fmt.Sprintf("key%010d", i)
		tr.Put([]byte(k), []byte("value"))
	}
}

func BenchmarkGetRandom(b *testing.B) {
	tr, _ := New(pager.NewMemory())
	const n = 100000
	for i := 0; i < n; i++ {
		tr.Put([]byte(fmt.Sprintf("key%010d", i)), []byte("value"))
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Get([]byte(fmt.Sprintf("key%010d", rng.Intn(n))))
	}
}

func BenchmarkRangeCount(b *testing.B) {
	tr, _ := New(pager.NewMemory())
	const n = 100000
	for i := 0; i < n; i++ {
		tr.Put([]byte(fmt.Sprintf("key%010d", i)), []byte("value"))
	}
	lo, hi := []byte("key0000010000"), []byte("key0000090000")
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Count(lo, hi)
	}
}
