package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"vamana/internal/baseline/dom"
	"vamana/internal/flex"
	"vamana/internal/mass"
	"vamana/internal/plan"
	"vamana/internal/xpath"
)

const personXML = `<site>
 <regions>
  <europe>
   <item id="item0"><name>gold watch</name><itemref/><price>42.50</price></item>
   <item id="item1"><name>silver pen</name><itemref/><price>12.00</price></item>
  </europe>
 </regions>
 <people>
  <person id="person144">
   <name>Yung Flach</name>
   <emailaddress>Flach@auth.gr</emailaddress>
   <address>
    <street>92 Pfisterer St</street>
    <city>Monroe</city>
    <province>Vermont</province>
    <country>United States</country>
    <zipcode>12</zipcode>
   </address>
   <watches>
    <watch open_auction="open_auction108"/>
    <watch open_auction="open_auction94"/>
   </watches>
  </person>
  <person id="person145">
   <name>Jaak Tempesti</name>
   <address>
    <street>1 Curie Place</street>
    <city>Ottawa</city>
    <country>Canada</country>
    <zipcode>99</zipcode>
   </address>
   <watches>
    <watch open_auction="open_auction12"/>
   </watches>
  </person>
  <person id="person146">
   <name>Mehmet Acer</name>
   <address>
    <street>5 Main St</street>
    <city>Monroe</city>
    <province>Vermont</province>
    <country>United States</country>
    <zipcode>12</zipcode>
   </address>
  </person>
 </people>
</site>`

// runVamana compiles and executes expr with the default (unoptimized)
// plan, returning sorted result keys.
func runVamana(t testing.TB, s *mass.Store, d mass.DocID, expr string) []string {
	t.Helper()
	ast, err := xpath.Parse(expr)
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	p, err := plan.Build(ast)
	if err != nil {
		t.Fatalf("build %q: %v", expr, err)
	}
	it, err := Run(p, Context{Store: s, Doc: d})
	if err != nil {
		t.Fatalf("run %q: %v", expr, err)
	}
	keys, err := collect(it)
	if err != nil {
		t.Fatalf("collect %q: %v", expr, err)
	}
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = string(k)
	}
	sort.Strings(out)
	return out
}

func runDOM(t testing.TB, e *dom.Engine, expr string) []string {
	t.Helper()
	ns, err := e.Eval(expr)
	if err != nil {
		t.Fatalf("dom eval %q: %v", expr, err)
	}
	return dom.Keys(ns)
}

func setup(t testing.TB, src string) (*mass.Store, mass.DocID, *dom.Engine) {
	t.Helper()
	s, err := mass.Open(mass.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	d, err := s.LoadDocument("doc", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	domDoc, err := dom.Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return s, d, dom.New(domDoc, dom.Options{})
}

// queries covers the paper's workload plus broad axis/predicate/function
// coverage. Every query is executed by both engines and compared.
var differentialQueries = []string{
	// The paper's experiment queries (§VIII).
	"//person/address",
	"//watches/watch/ancestor::person",
	"/descendant::name/parent::*/self::person/address",
	"//itemref/following-sibling::price/parent::*",
	"//province[text()='Vermont']/ancestor::person",
	// Running examples (§III).
	"descendant::name/parent::*/self::person/address",
	"//name[ text() = 'Yung Flach' ]/following-sibling::emailaddress",
	// Axis coverage.
	"/site/people/person",
	"//person/name",
	"//watch/parent::watches",
	"//city/ancestor-or-self::*",
	"//name/following::city",
	"//zipcode/preceding::name",
	"//city/preceding-sibling::street",
	"//street/following-sibling::zipcode",
	"//person/descendant-or-self::node()",
	"//address/child::node()",
	"//person/@id",
	"//watch/@open_auction",
	"//person/attribute::*",
	"/",
	"//person/..",
	"//name/.",
	"//*",
	"//text()",
	// Predicates.
	"//person[address]",
	"//person[watches]/name",
	"//person[address/province]",
	"//person[not(watches)]",
	"//person[@id='person145']",
	"//person[name='Jaak Tempesti']/address/city",
	"//address[zipcode=12]/parent::person",
	"//address[zipcode > 50]",
	"//address[zipcode >= 12 and zipcode < 50]",
	"//person[address/city='Monroe' or address/city='Ottawa']",
	"//person[1]",
	"//person[2]/name",
	"//person[position()=3]",
	"//person[position()=last()]",
	"//person[last()]",
	"//watch[2]",
	"//person[count(watches/watch) > 1]",
	"//person[contains(name, 'Acer')]",
	"//person[starts-with(name, 'Yung')]",
	"//item[price > 20]",
	"//item[price > 10 and price < 20]/name",
	"//person[address/province='Vermont'][watches]",
	// Unions.
	"//name | //city",
	"//person/name | //item/name",
	"//nosuchthing | //province",
	// Deeper nesting and mixed steps.
	"//people/person[address[province]]/watches/watch",
	"/site//person[.//province]/name",
	"//person[address/zipcode=99]/preceding-sibling::person",
	"//person/following-sibling::person/name",
}

func TestDifferentialAgainstDOM(t *testing.T) {
	s, d, oracle := setup(t, personXML)
	for _, q := range differentialQueries {
		got := runVamana(t, s, d, q)
		want := runDOM(t, oracle, q)
		if !equalStrings(got, want) {
			t.Errorf("query %q:\n vamana: %v\n dom:    %v", q, got, want)
		}
	}
}

// TestDifferentialRandomDocs cross-checks both engines on generated
// documents with dense structure.
func TestDifferentialRandomDocs(t *testing.T) {
	queries := []string{
		"//alpha", "//alpha/beta", "//beta[gamma]", "//gamma/parent::*",
		"//delta/ancestor::alpha", "//beta/following-sibling::*",
		"//gamma/preceding-sibling::beta", "//alpha[@id]", "//*[@class='beta']",
		"//alpha//gamma", "//beta[2]", "//gamma[last()]",
		"//alpha[beta and gamma]", "//beta/following::gamma",
		"//gamma/preceding::beta", "//alpha/descendant-or-self::beta",
		"//beta/text()", "//alpha[beta='text7']",
	}
	for seed := int64(1); seed <= 4; seed++ {
		src := randomXML(seed, 300)
		s, d, oracle := setup(t, src)
		for _, q := range queries {
			got := runVamana(t, s, d, q)
			want := runDOM(t, oracle, q)
			if !equalStrings(got, want) {
				t.Errorf("seed %d query %q:\n vamana: %d keys %v\n dom:    %d keys %v",
					seed, q, len(got), got, len(want), want)
			}
		}
	}
}

func randomXML(seed int64, elems int) string {
	rng := rand.New(rand.NewSource(seed))
	names := []string{"alpha", "beta", "gamma", "delta"}
	var b strings.Builder
	b.WriteString("<root>")
	var stack []string
	for i := 0; i < elems; i++ {
		if len(stack) > 0 && rng.Intn(4) == 0 {
			b.WriteString("</" + stack[len(stack)-1] + ">")
			stack = stack[:len(stack)-1]
			continue
		}
		n := names[rng.Intn(len(names))]
		b.WriteString("<" + n)
		if rng.Intn(3) == 0 {
			fmt.Fprintf(&b, " id=%q", fmt.Sprintf("v%d", rng.Intn(15)))
		}
		if rng.Intn(4) == 0 {
			fmt.Fprintf(&b, " class=%q", names[rng.Intn(len(names))])
		}
		b.WriteString(">")
		if rng.Intn(3) == 0 {
			fmt.Fprintf(&b, "text%d", rng.Intn(10))
		}
		if rng.Intn(2) == 0 {
			b.WriteString("</" + n + ">")
		} else {
			stack = append(stack, n)
		}
	}
	for len(stack) > 0 {
		b.WriteString("</" + stack[len(stack)-1] + ">")
		stack = stack[:len(stack)-1]
	}
	b.WriteString("</root>")
	return b.String()
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestResultNodeMaterialization(t *testing.T) {
	s, d, _ := setup(t, personXML)
	ast, _ := xpath.Parse("//person/name")
	p, _ := plan.Build(ast)
	it, err := Run(p, Context{Store: s, Doc: d})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for it.Next() {
		n, err := it.Node()
		if err != nil {
			t.Fatal(err)
		}
		if n.Name != "name" {
			t.Fatalf("materialized node = %+v", n)
		}
		count++
	}
	if count != 3 {
		t.Fatalf("names = %d, want 3", count)
	}
}

// TestReleasedRunStateHoldsNoView runs queries that fetch their results
// and pull through reverse and predicate steps, then walks everything
// the released run state can reach: no view, tree or B+-tree node of the
// finished run may be among it.
func TestReleasedRunStateHoldsNoView(t *testing.T) {
	s, d, _ := setup(t, personXML)
	for _, expr := range []string{"//person/name", "//watch/ancestor::person", "//person[address/province]/name"} {
		ast, _ := xpath.Parse(expr)
		p, _ := plan.Build(ast)
		it, err := Run(p, Context{Store: s, Doc: d})
		if err != nil {
			t.Fatal(err)
		}
		rs := it.rs
		for it.Next() {
			if _, err := it.Node(); err != nil {
				t.Fatal(err)
			}
		}
		it.Close()
		if path := retained(reflect.ValueOf(rs), "runState", map[uintptr]bool{}); path != "" {
			t.Errorf("%s: released run state still reaches %s", expr, path)
		}
		if _, err := it.Node(); err == nil {
			t.Errorf("%s: Node after Close read storage", expr)
		}
	}
}

// retained returns the path to the first view, tree or B+-tree node
// reachable from v, or "" when there is none.
func retained(v reflect.Value, path string, seen map[uintptr]bool) string {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return ""
		}
		switch v.Type().String() {
		case "*mass.View", "*pager.View", "*btree.Tree", "*btree.node":
			return path + " (" + v.Type().String() + ")"
		}
		if seen[v.Pointer()] {
			return ""
		}
		seen[v.Pointer()] = true
		return retained(v.Elem(), path, seen)
	case reflect.Interface:
		if v.IsNil() {
			return ""
		}
		return retained(v.Elem(), path, seen)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p := retained(v.Field(i), path+"."+v.Type().Field(i).Name, seen); p != "" {
				return p
			}
		}
	case reflect.Slice:
		// Pooled slices are parked at length 0: what they retain is in
		// their capacity.
		v = v.Slice3(0, v.Cap(), v.Cap())
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if p := retained(v.Index(i), fmt.Sprintf("%s[%d]", path, i), seen); p != "" {
				return p
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if p := retained(it.Value(), path+"[…]", seen); p != "" {
				return p
			}
		}
	}
	return ""
}

func TestStartContextBinding(t *testing.T) {
	s, d, _ := setup(t, personXML)
	// Find person145's key, then evaluate a relative path from it.
	keys := runVamana(t, s, d, "//person[@id='person145']")
	if len(keys) != 1 {
		t.Fatalf("persons = %d", len(keys))
	}
	ast, _ := xpath.Parse("address/city")
	p, _ := plan.Build(ast)
	it, err := Run(p, Context{Store: s, Doc: d, Start: flex.Key(keys[0])})
	if err != nil {
		t.Fatal(err)
	}
	res, err := collect(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("cities from person145 = %d", len(res))
	}
	sv, _ := it.View().StringValue(d, res[0])
	if sv != "Ottawa" {
		t.Fatalf("city = %q", sv)
	}
}

func TestVariableBinding(t *testing.T) {
	s, d, _ := setup(t, personXML)
	persons := runVamana(t, s, d, "//person[watches]")
	var keys []flex.Key
	for _, k := range persons {
		keys = append(keys, flex.Key(k))
	}
	// count($p) inside a predicate.
	ast, err := xpath.Parse("//person[count($p) = 2]/name")
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(ast)
	if err != nil {
		t.Fatal(err)
	}
	it, err := Run(p, Context{Store: s, Doc: d, Vars: map[string][]flex.Key{"p": keys}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := collect(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("names = %d, want 3 (predicate is true for every person)", len(res))
	}
}

func TestDistinctRootDeduplicates(t *testing.T) {
	s, d, _ := setup(t, personXML)
	// Two watches under person144 -> ancestor::person yields duplicates
	// without dedup.
	got := runVamana(t, s, d, "//watches/watch/ancestor::person")
	if len(got) != 2 {
		t.Fatalf("distinct persons = %d, want 2", len(got))
	}
}

func TestOperatorStates(t *testing.T) {
	if Initial.String() != "INITIAL" || Fetching.String() != "FETCHING" || OutOfTuples.String() != "OUT_OF_TUPLES" {
		t.Fatal("state names diverge from the paper")
	}
}

func TestUnknownFunctionError(t *testing.T) {
	s, d, _ := setup(t, personXML)
	ast, err := xpath.Parse("//person[frobnicate()]")
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(ast)
	if err != nil {
		t.Fatal(err)
	}
	it, err := Run(p, Context{Store: s, Doc: d})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := collect(it); err == nil {
		t.Fatal("unknown function did not error")
	}
}

// TestNamespaceAxis covers the 13th axis: in-scope namespace
// declarations, nearest binding first, inherited from ancestors.
func TestNamespaceAxis(t *testing.T) {
	src := `<a xmlns="urn:default" xmlns:p="urn:p"><b xmlns:q="urn:q"><c/></b></a>`
	s, d, oracle := setup(t, src)
	for _, q := range []string{
		"//c/namespace::*",
		"//b/namespace::*",
		"/a/namespace::*",
	} {
		got := runVamana(t, s, d, q)
		want := runDOM(t, oracle, q)
		if !equalStrings(got, want) {
			t.Errorf("%s:\n vamana: %v\n dom:    %v", q, got, want)
		}
		if len(got) == 0 {
			t.Errorf("%s: no namespace nodes", q)
		}
	}
	// Nearest declaration wins: c sees q, p and the default.
	got := runVamana(t, s, d, "//c/namespace::*")
	if len(got) != 3 {
		t.Errorf("c in-scope namespaces = %d, want 3", len(got))
	}
}

// collect drains the iterator into a key slice.
func collect(it *Iterator) ([]flex.Key, error) {
	var out []flex.Key
	for it.Next() {
		out = append(out, it.Key())
	}
	return out, it.Err()
}
