package vamana

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vamana/internal/baseline/dom"
	"vamana/internal/flex"
	"vamana/internal/xmldoc"
)

// TestConcurrentReadersMatchOracle: two readers on one live DB drain
// Q1-shaped queries while a writer commits insert and delete
// transactions. Every read pins the version current when it starts, so
// its FLEX-key stream must equal the DOM oracle's answer for one commit
// generation that was current while the read ran — never a blend of two.
// The oracle is a model of the document kept beside the writer: the
// nodes each transaction adds or removes, at the keys the store
// assigned. Run with -race (scripts/check.sh repeats it 20 times).
func TestConcurrentReadersMatchOracle(t *testing.T) {
	const src = `<site><people>` +
		`<person id="p0"><name>n0</name><address><city>c0</city></address></person>` +
		`<person id="p1"><name>n1</name></person>` +
		`</people><regions><africa/></regions></site>`
	queries := []string{"//person/address", "//person/name", "/site/people/person"}
	const commits, readers = 40, 2

	db := openDB(t)
	doc, err := db.LoadXMLString("auction", src)
	if err != nil {
		t.Fatal(err)
	}
	var model []xmldoc.Node
	if err := xmldoc.Parse(strings.NewReader(src), func(n xmldoc.Node) error {
		model = append(model, n)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var people flex.Key
	for _, n := range model {
		if n.Name == "people" {
			people = n.Key
		}
	}

	// generations[g] is the model after g commits; done counts the
	// commits whose Update has returned.
	generations := [][]xmldoc.Node{slices.Clone(model)}
	var done atomic.Int64
	type read struct {
		q      string
		keys   []string
		lo, hi int64
	}
	var (
		mu    sync.Mutex
		reads []read
		wg    sync.WaitGroup
	)
	errc := make(chan error, readers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		var added []flex.Key // persons inserted and not yet deleted
		for g := 1; g <= commits; g++ {
			var err error
			if g%3 != 0 {
				err = db.Update(func(tx *Txn) error {
					pk, err := tx.InsertElement(doc, string(people), -1, "person")
					if err != nil {
						return err
					}
					ak, err := tx.InsertElement(doc, pk, -1, "address")
					if err != nil {
						return err
					}
					tk, err := tx.InsertText(doc, ak, -1, fmt.Sprint("a", g))
					if err != nil {
						return err
					}
					model = append(model,
						xmldoc.Node{Key: flex.Key(pk), Kind: xmldoc.KindElement, Name: "person"},
						xmldoc.Node{Key: flex.Key(ak), Kind: xmldoc.KindElement, Name: "address"},
						xmldoc.Node{Key: flex.Key(tk), Kind: xmldoc.KindText, Value: fmt.Sprint("a", g)})
					added = append(added, flex.Key(pk))
					return nil
				})
			} else {
				victim := added[0]
				added = added[1:]
				err = db.Update(func(tx *Txn) error { return tx.DeleteSubtree(doc, string(victim)) })
				model = slices.DeleteFunc(model, func(n xmldoc.Node) bool {
					return n.Key == victim || victim.IsAncestorOf(n.Key)
				})
			}
			if err != nil {
				errc <- fmt.Errorf("commit %d: %w", g, err)
				return
			}
			slices.SortFunc(model, func(a, b xmldoc.Node) int { return a.Key.Compare(b.Key) })
			generations = append(generations, slices.Clone(model))
			done.Add(1)
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; done.Load() < commits || i < len(queries); i++ {
				q := queries[(r+i)%len(queries)]
				lo := done.Load()
				res, err := db.Query(doc, q)
				if err != nil {
					errc <- fmt.Errorf("reader %d %s: %w", r, q, err)
					return
				}
				keys, err := res.Keys()
				if err != nil {
					errc <- fmt.Errorf("reader %d %s: %w", r, q, err)
					return
				}
				mu.Lock()
				reads = append(reads, read{q, keys, lo, done.Load()})
				mu.Unlock()
			}
		}(r)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// answer[g][q] is the oracle's key stream for q at generation g.
	answer := make([]map[string][]string, len(generations))
	for g, nodes := range generations {
		d, err := dom.Build(nodes)
		if err != nil {
			t.Fatalf("generation %d: %v", g, err)
		}
		e := dom.New(d, dom.Options{})
		answer[g] = map[string][]string{}
		for _, q := range queries {
			ns, err := e.Eval(q)
			if err != nil {
				t.Fatal(err)
			}
			answer[g][q] = dom.Keys(ns)
		}
	}
	// A read pinned a generation between the commits done before it
	// started and one past those done when it finished: a commit
	// publishes before its Update returns.
	for _, rd := range reads {
		match := false
		for g := rd.lo; g <= min(rd.hi+1, commits) && !match; g++ {
			match = slices.Equal(rd.keys, answer[g][rd.q])
		}
		if !match {
			t.Fatalf("%s read during generations %d..%d returned %v; no generation in range answers that", rd.q, rd.lo, rd.hi+1, rd.keys)
		}
	}
	t.Logf("%d reads over %d commits matched the oracle", len(reads), commits)
}
