package vamana

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime/debug"
	"testing"

	"vamana/internal/baseline/dom"
)

// TestPooledScanStateAcrossVersions is the staleness proof for the
// positioned scanners: a run leaves its step executors — cursor on some
// leaf, ancestor stack filled — in the executor pool, the document then
// changes underneath (inserts that split exactly the leaves the run ended
// on, then a delete), and the next run picks those pooled executors up.
// Whatever they remembered must be gone: every query must equal the DOM
// oracle evaluated over the document as it now is. Every change is a
// DB.Update commit, which publishes a new snapshot (new tree objects, so a
// kept cursor would point into a retired version). It runs twice: in
// memory, and file-backed with a one-page cache — only there are page
// frames evicted and re-read as new objects, which is what makes a kept
// leaf pointer stale rather than merely out of date.
func TestPooledScanStateAcrossVersions(t *testing.T) {
	// The executor pool is a sync.Pool, which a garbage collection empties:
	// with the collector running, the inserts below would hand every later
	// run fresh executors and the test would prove nothing.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	exprs := []string{
		"//person/address",
		"//watches/watch/ancestor::person",
		"/descendant::name/parent::*/self::person/address",
		"//itemref/following-sibling::price/parent::*",
		"//watch/ancestor::*/name",
		"//bidder/preceding-sibling::*/increase",
		"//person/name/parent::person/watches/watch",
		"//@id/following-sibling::*",
	}
	for _, mode := range []string{"update", "file"} {
		t.Run(mode, func(t *testing.T) {
			db := openDB(t)
			if mode == "file" {
				var err error
				db, err = Open(Options{Path: filepath.Join(t.TempDir(), "file.vam"), CachePages: 1})
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
			}
			doc := loadAuction(t, db, 0.004)
			queries := make([]*Query, len(exprs))
			for i, e := range exprs {
				q, err := db.Prepare(e, WithDocument(doc))
				if err != nil {
					t.Fatal(err)
				}
				queries[i] = q
			}
			// describe renders a result node so that nodes of two engines
			// compare without sharing keys (inserted nodes get FLEX keys a
			// fresh parse would not assign).
			describe := func(name, value string) string { return name + "|" + value }

			// check compares every query with a fresh oracle, query `first`
			// before the others.
			check := func(stage string, first int) {
				t.Helper()
				var xml bytes.Buffer
				if err := doc.WriteXML("a", &xml); err != nil {
					t.Fatal(err)
				}
				parsed, err := dom.Parse(bytes.NewReader(xml.Bytes()))
				if err != nil {
					t.Fatalf("%s: oracle parse: %v", stage, err)
				}
				oracle := dom.New(parsed, dom.Options{})
				for j := range exprs {
					i := (first + j) % len(exprs)
					e := exprs[i]
					nodes, err := oracle.Eval(e)
					if err != nil {
						t.Fatalf("%s: oracle %s: %v", stage, e, err)
					}
					res, err := queries[i].Run(context.Background(), doc, Ordered())
					if err != nil {
						t.Fatalf("%s: %s: %v", stage, e, err)
					}
					n := 0
					for res.Next() {
						node, err := res.Node()
						if err != nil {
							t.Fatal(err)
						}
						sv, err := res.StringValue()
						if err != nil {
							t.Fatal(err)
						}
						if n < len(nodes) {
							if got, want := describe(node.Name, sv), describe(nodes[n].Name, nodes[n].StringValue()); got != want {
								t.Fatalf("%s: %s: result %d is %q, oracle has %q", stage, e, n, got, want)
							}
						}
						n++
					}
					if err := res.Err(); err != nil {
						t.Fatalf("%s: %s: %v", stage, e, err)
					}
					if n != len(nodes) {
						t.Fatalf("%s: %s: %d results, oracle has %d", stage, e, n, len(nodes))
					}
				}
			}

			firstKey := func(expr string) string {
				t.Helper()
				res, err := db.Query(doc, expr)
				if err != nil {
					t.Fatal(err)
				}
				keys, err := res.Keys()
				if err != nil || len(keys) == 0 {
					t.Fatalf("%s: %d keys, err %v", expr, len(keys), err)
				}
				return keys[0]
			}
			people := firstKey("/site/people")
			auction := firstKey("//open_auction[bidder]")

			// mutate applies fn as one DB.Update transaction.
			type ops struct {
				elem func(parent string, pos int, name string) string
				text func(parent, value string)
				del  func(key string)
			}
			mutate := func(fn func(ops)) {
				t.Helper()
				must := func(err error) {
					t.Helper()
					if err != nil {
						t.Fatal(err)
					}
				}
				must(db.Update(func(tx *Txn) error {
					fn(ops{
						elem: func(p string, pos int, n string) string {
							k, err := tx.InsertElement(doc, p, pos, n)
							must(err)
							return k
						},
						text: func(p, v string) { _, err := tx.InsertText(doc, p, -1, v); must(err) },
						del:  func(k string) { must(tx.DeleteSubtree(doc, k)) },
					})
					return nil
				}))
			}
			addPersons := func(o ops, pos, n int, tag string) []string {
				var keys []string
				for i := 0; i < n; i++ {
					p := o.elem(people, pos, "person")
					keys = append(keys, p)
					o.text(o.elem(p, -1, "name"), fmt.Sprintf("%s %d", tag, i))
					addr := o.elem(p, -1, "address")
					o.text(o.elem(addr, -1, "city"), "Splitville")
					ws := o.elem(p, -1, "watches")
					o.elem(ws, -1, "watch")
					o.elem(ws, -1, "watch")
				}
				return keys
			}

			check("loaded", 0)
			// One round per query: run it (its executors go back to the
			// pool resting on the leaves the run ended on — the last
			// person, the last bidder), change the document right there,
			// enough to split those leaves several times over, and run the
			// same query first: it is handed the executors it just left.
			var appended []string
			for i, e := range exprs {
				res, err := queries[i].Run(context.Background(), doc)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := res.Keys(); err != nil {
					t.Fatal(err)
				}
				mutate(func(o ops) {
					switch i % 3 {
					case 0:
						appended = append(appended, addPersons(o, -1, 60, "Tail")...)
						for n := 0; n < 40; n++ {
							b := o.elem(auction, 1, "bidder")
							o.text(o.elem(b, -1, "increase"), fmt.Sprint(n))
						}
					case 1:
						addPersons(o, 0, 60, "Head")
					default:
						for _, k := range appended[:len(appended)/2] {
							o.del(k)
						}
						appended = appended[len(appended)/2:]
					}
				})
				check("after "+e, i)
			}
		})
	}
}
