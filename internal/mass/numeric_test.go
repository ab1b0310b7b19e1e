package mass

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"vamana/internal/flex"
)

// TestEncodeFloatOrderPreserving: byte order of the encoding equals
// numeric order for arbitrary float pairs.
func TestEncodeFloatOrderPreserving(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		ea, eb := encodeFloat(a), encodeFloat(b)
		switch {
		case a < b:
			return string(ea[:]) < string(eb[:])
		case a > b:
			return string(ea[:]) > string(eb[:])
		default:
			return ea == eb
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	// Round-trip.
	for _, v := range []float64{0, -0.0, 1, -1, 12.5, -99.25, math.Inf(1), math.Inf(-1), 1e-300, -1e300} {
		if got := decodeFloat(encodeFloat(v)); got != v && !(v == 0 && got == 0) {
			t.Errorf("round trip %g -> %g", v, got)
		}
	}
}

func TestNumericRangeCountAndScan(t *testing.T) {
	s := openMem(t)
	var b []byte
	b = append(b, "<r>"...)
	vals := []string{"5", "10", "10.5", "-3", "100", "42", "notanumber", "  7 ", "10"}
	for _, v := range vals {
		b = append(b, fmt.Sprintf("<x>%s</x>", v)...)
	}
	b = append(b, "</r>"...)
	d := loadDoc(t, s, "doc", string(b))

	cases := []struct {
		lo     float64
		loIncl bool
		hi     float64
		hiIncl bool
		want   uint64
	}{
		{math.Inf(-1), true, math.Inf(1), true, 8}, // all numeric (notanumber excluded)
		{10, true, 10, true, 2},                    // [10,10] -> the two "10"s
		{10, false, math.Inf(1), true, 3},          // >10 -> 10.5, 42, 100
		{0, true, 10, false, 3},                    // [0,10) -> 5, 7, ... wait: 5, 7 -> and? see below
		{-5, true, 0, false, 1},                    // -3
		{1000, true, math.Inf(1), true, 0},
	}
	// [0,10): 5 and 7 only — fix expectation.
	cases[3].want = 2
	for _, c := range cases {
		got, err := cur(s).NumericRangeCount(d, c.lo, c.loIncl, c.hi, c.hiIncl)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("count(lo=%g incl=%v, hi=%g incl=%v) = %d, want %d",
				c.lo, c.loIncl, c.hi, c.hiIncl, got, c.want)
		}
	}
	// The scan yields the text nodes in range; their values come from Store.Node.
	var got []string
	for _, n := range collect(t, cur(s).BindNumRange(new(Scanner), d, "", 10, false, math.Inf(1), true)) {
		got = append(got, n.Value)
	}
	sort.Strings(got)
	want := []string{"10.5", "100", "42"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan = %v, want %v", got, want)
	}
}

func TestNumericIndexMaintainedUnderUpdates(t *testing.T) {
	s := openMem(t)
	d := loadDoc(t, s, "doc", `<r><x>50</x></r>`)
	if n, _ := cur(s).NumericRangeCount(d, 0, true, 100, true); n != 1 {
		t.Fatal("setup failed")
	}
	texts := collect(t, s.AxisScan(d, flex.Root, AxisDescendant, NodeTest{Type: TestText}))
	// Numeric -> numeric.
	if err := update(s, func(u *Update) error { return u.UpdateText(d, texts[0].Key, "500") }); err != nil {
		t.Fatal(err)
	}
	if n, _ := cur(s).NumericRangeCount(d, 0, true, 100, true); n != 0 {
		t.Error("old numeric entry survived update")
	}
	if n, _ := cur(s).NumericRangeCount(d, 400, true, 600, true); n != 1 {
		t.Error("new numeric entry missing")
	}
	// Numeric -> non-numeric.
	if err := update(s, func(u *Update) error { return u.UpdateText(d, texts[0].Key, "n/a") }); err != nil {
		t.Fatal(err)
	}
	if n, _ := cur(s).NumericRangeCount(d, math.Inf(-1), true, math.Inf(1), true); n != 0 {
		t.Error("numeric entry survived non-numeric update")
	}
	// Insert + delete.
	r := firstNamed(t, s, d, "r")
	var k flex.Key
	if err := update(s, func(u *Update) (err error) { k, err = u.InsertText(d, r, -1, "77"); return err }); err != nil {
		t.Fatal(err)
	}
	if n, _ := cur(s).NumericRangeCount(d, 77, true, 77, true); n != 1 {
		t.Error("inserted numeric text not indexed")
	}
	if err := update(s, func(u *Update) error { return u.DeleteSubtree(d, k) }); err != nil {
		t.Fatal(err)
	}
	if n, _ := cur(s).NumericRangeCount(d, 77, true, 77, true); n != 0 {
		t.Error("deleted numeric text still indexed")
	}
}

// TestNumericRangeAgainstBruteForce randomizes values and ranges.
func TestNumericRangeAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var b []byte
	b = append(b, "<r>"...)
	var vals []float64
	for i := 0; i < 300; i++ {
		v := math.Round(rng.Float64()*2000-1000) / 4
		vals = append(vals, v)
		b = append(b, fmt.Sprintf("<x>%g</x>", v)...)
	}
	b = append(b, "</r>"...)
	s := openMem(t)
	d := loadDoc(t, s, "doc", string(b))

	for trial := 0; trial < 200; trial++ {
		lo := rng.Float64()*2000 - 1000
		hi := rng.Float64()*2000 - 1000
		if lo > hi {
			lo, hi = hi, lo
		}
		loIncl, hiIncl := rng.Intn(2) == 0, rng.Intn(2) == 0
		var want uint64
		for _, v := range vals {
			okLo := v > lo || (loIncl && v == lo)
			okHi := v < hi || (hiIncl && v == hi)
			if okLo && okHi {
				want++
			}
		}
		got, err := cur(s).NumericRangeCount(d, lo, loIncl, hi, hiIncl)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: count(%g..%g, %v/%v) = %d, want %d",
				trial, lo, hi, loIncl, hiIncl, got, want)
		}
	}
}

// TestNumericRangeCountOtherDocument: the numeric key is tag ++ value ++
// doc ++ key, so a range's bounds enclose every document's values
// between them. The public count is exact per document; the cost
// model's counted probe is the documented upper bound.
func TestNumericRangeCountOtherDocument(t *testing.T) {
	s := openMem(t)
	a := loadDoc(t, s, "a", `<r><v>1</v><v>9</v></r>`)
	b := loadDoc(t, s, "b", `<r><v>5</v><v>6</v><v>7</v></r>`)
	for _, c := range []struct {
		d           DocID
		lo, hi      float64
		want, bound uint64
	}{
		{a, 0, 10, 2, 5},
		{b, 0, 10, 3, 5},
		{a, 2, 8, 0, 3},
		{b, math.Inf(-1), math.Inf(1), 3, 5},
	} {
		got, err := cur(s).NumericRangeCount(c.d, c.lo, true, c.hi, true)
		if err != nil || got != c.want {
			t.Errorf("doc %d [%g, %g]: NumericRangeCount = %d, %v; want %d", c.d, c.lo, c.hi, got, err, c.want)
		}
		bound, err := cur(s).NumericRangeBound(c.d, c.lo, true, c.hi, true)
		if err != nil || bound < got || bound != c.bound {
			t.Errorf("doc %d [%g, %g]: NumericRangeBound = %d, %v; want %d, at least the count", c.d, c.lo, c.hi, bound, err, c.bound)
		}
	}
}
