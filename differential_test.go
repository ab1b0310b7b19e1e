package vamana

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"vamana/internal/baseline/dom"
)

// Randomized differential testing (in the spirit of the Galax comparison
// work): a seeded generator produces random documents and random XPath
// expressions, each executed three ways — the unoptimized plan (VQP), the
// cost-optimized plan (VQP-OPT), and the DOM oracle — and any disagreement
// in the ordered result-key lists fails with the reproducing seed.
//
// TestDifferentialRandom runs a short deterministic sweep in every `go
// test`; the stress build tag (differential_stress_test.go) runs the
// ≥1000-pair campaign wired into scripts/check.sh.

// diffGen generates random documents and queries from one seeded source.
type diffGen struct {
	r *rand.Rand
}

var (
	diffElems = []string{"aa", "bb", "cc", "dd", "ee"}
	diffAttrs = []string{"p", "q"}
	diffTexts = []string{"red", "blue", "7", "42", "100"}
)

func (g *diffGen) pick(list []string) string { return list[g.r.Intn(len(list))] }

// genDoc produces a random XML document of up to ~80 nodes, depth <= 5,
// with random attributes and text values drawn from small pools so that
// value predicates sometimes match. One element in four takes its
// parent's name, so name-tested ancestor walks meet the same name at
// several depths of one chain.
func (g *diffGen) genDoc() string {
	var sb strings.Builder
	budget := 10 + g.r.Intn(70)
	sb.WriteString("<root>")
	g.genContent(&sb, 1, &budget, "")
	sb.WriteString("</root>")
	return sb.String()
}

func (g *diffGen) genContent(sb *strings.Builder, depth int, budget *int, parent string) {
	n := 1 + g.r.Intn(4)
	for i := 0; i < n && *budget > 0; i++ {
		*budget--
		if g.r.Intn(4) == 0 {
			sb.WriteString(g.pick(diffTexts))
			continue
		}
		name := g.pick(diffElems)
		if parent != "" && g.r.Intn(4) == 0 {
			name = parent
		}
		sb.WriteByte('<')
		sb.WriteString(name)
		for a := g.r.Intn(3); a > 0; a-- {
			fmt.Fprintf(sb, " %s=%q", g.pick(diffAttrs), g.pick(diffTexts))
		}
		sb.WriteByte('>')
		if depth < 5 && g.r.Intn(3) > 0 {
			g.genContent(sb, depth+1, budget, name)
		}
		sb.WriteString("</")
		sb.WriteString(name)
		sb.WriteByte('>')
	}
}

// genQuery produces a random XPath expression over the generated
// vocabulary: 1–3 steps, the full axis set except namespace, name / * /
// text() / node() tests, value-, position-, count- and string-function
// predicates, and an occasional union. One path in four is a genChain
// shape instead.
func (g *diffGen) genQuery() string {
	q := g.genPath()
	if g.r.Intn(8) == 0 {
		q += " | " + g.genPath()
	}
	return q
}

func (g *diffGen) genPath() string {
	if g.r.Intn(4) == 0 {
		return g.genChain()
	}
	var sb strings.Builder
	steps := 1 + g.r.Intn(3)
	for i := 0; i < steps; i++ {
		if g.r.Intn(2) == 0 {
			sb.WriteString("//")
		} else {
			sb.WriteString("/")
		}
		sb.WriteString(g.genStep(i == steps-1))
	}
	return sb.String()
}

// genChain produces the shapes whose per-context binds the executor runs
// as one ordered walk of an index — and the ones that break the order it
// hopes for: a reverse axis feeding a forward step (contexts arrive in
// reverse document order, so every re-seek falls back to a descent),
// name-tested ancestor walks over nested same-name elements (the
// ancestor stack's case), index-only parent/self tests, and attribute
// contexts feeding sibling and reverse axes (attributes have no siblings:
// `//@p/following-sibling::*` must stay empty).
func (g *diffGen) genChain() string {
	a, b := g.pick(diffElems), g.pick(diffElems)
	test := func() string {
		if g.r.Intn(3) == 0 {
			return "*"
		}
		return g.pick(diffElems)
	}
	attr := "@*"
	if g.r.Intn(2) == 0 {
		attr = "@" + g.pick(diffAttrs)
	}
	var q string
	switch g.r.Intn(8) {
	case 0:
		q = "//" + a + "/ancestor::" + test() + "/" + b
	case 1:
		q = "//" + a + "/preceding-sibling::" + test() + "/" + b
	case 2:
		q = "//" + a + "/ancestor-or-self::" + a + "/" + test()
	case 3:
		q = "//" + a + "//" + a + "/ancestor::" + a
	case 4:
		q = "//" + attr + "/following-sibling::" + test()
	case 5:
		q = "//" + attr + "/preceding-sibling::" + test()
	case 6:
		q = "//" + attr + "/parent::" + test() + "/" + g.genStep(true)
	default:
		q = "//" + a + "/parent::" + test() + "/self::" + b + "/" + test()
	}
	if g.r.Intn(3) == 0 {
		q += "/" + g.genStep(true)
	}
	return q
}

func (g *diffGen) genStep(last bool) string {
	// Attribute steps only at the tail: attributes have no content to
	// continue a path through.
	if last && g.r.Intn(6) == 0 {
		if g.r.Intn(2) == 0 {
			return "@" + g.pick(diffAttrs)
		}
		return "@*"
	}
	axis := ""
	switch g.r.Intn(10) {
	case 0:
		axis = "descendant::"
	case 1:
		axis = "ancestor::"
	case 2:
		axis = "ancestor-or-self::"
	case 3:
		axis = "following-sibling::"
	case 4:
		axis = "preceding-sibling::"
	case 5:
		axis = "following::"
	case 6:
		axis = "preceding::"
	case 7:
		axis = "parent::"
	case 8:
		axis = "self::"
	default: // child, the common case
	}
	test := g.pick(diffElems)
	switch g.r.Intn(6) {
	case 0:
		test = "*"
	case 1:
		if last {
			test = "text()"
		}
	case 2:
		if last {
			test = "node()"
		}
	}
	step := axis + test
	if test != "text()" && test != "node()" {
		for p := g.r.Intn(3); p > 0; p-- {
			step += g.genPredicate()
		}
	}
	return step
}

func (g *diffGen) genPredicate() string {
	switch g.r.Intn(12) {
	case 8: // an absolute path: independent of the context node
		return "[//" + g.pick(diffElems) + "]"
	case 9:
		return fmt.Sprintf("[@%s = //%s/@%s]", g.pick(diffAttrs), g.pick(diffElems), g.pick(diffAttrs))
	case 10:
		return fmt.Sprintf("[@%s='%s' or /*/%s]", g.pick(diffAttrs), g.pick(diffTexts), g.pick(diffElems))
	case 0:
		return fmt.Sprintf("[%d]", 1+g.r.Intn(3))
	case 1:
		return "[last()]"
	case 2:
		return "[" + g.pick(diffElems) + "]"
	case 3:
		return fmt.Sprintf("[@%s='%s']", g.pick(diffAttrs), g.pick(diffTexts))
	case 4:
		return fmt.Sprintf("[text()='%s']", g.pick(diffTexts))
	case 5:
		return fmt.Sprintf("[count(%s) > %d]", g.pick(diffElems), g.r.Intn(3))
	case 6:
		return fmt.Sprintf("[contains(%s, '%s')]", g.pick(diffElems), g.pick([]string{"e", "re", "1", "0"}))
	case 7:
		return fmt.Sprintf("[starts-with(%s, '%s')]", g.pick(diffElems), g.pick([]string{"r", "b", "4"}))
	default:
		return fmt.Sprintf("[%s > %d]", g.pick(diffElems), 10+g.r.Intn(90))
	}
}

// diffBatchSizes are the executor pull-batch sizes every pair runs at:
// tuple-at-a-time (the pre-batching executor, byte-for-byte the reference
// stream), the smallest true batch (exercises batch-edge refills on
// almost every pull), and the two production sizes. Duplicates or drops
// at batch boundaries, and ordered-merge mistakes in union plans, show up
// as a disagreement between sizes.
var diffBatchSizes = []int{1, 2, 64, 256}

// runDifferential executes pairs (document, query) derived from seed and
// fails on any disagreement, printing everything needed to reproduce: the
// pair's seed, the document, and the expression. Each pair runs three
// ways (VQP, VQP-OPT, DOM oracle) at every batch size in diffBatchSizes;
// the ordered result-key lists must match the oracle at every size, and
// the unordered (pipelined) streams must be element-wise identical across
// sizes.
func runDifferential(t *testing.T, seed int64, docs, queriesPerDoc int) {
	t.Helper()
	pairs := 0
	for d := 0; d < docs; d++ {
		docSeed := seed + int64(d)
		g := &diffGen{r: rand.New(rand.NewSource(docSeed))}
		src := g.genDoc()

		dbs := make([]*DB, len(diffBatchSizes))
		diffDocs := make([]*Document, len(diffBatchSizes))
		for i, b := range diffBatchSizes {
			db, err := Open(Options{ExecBatchSize: b})
			if err != nil {
				t.Fatal(err)
			}
			dbs[i] = db
			if diffDocs[i], err = db.LoadXMLString("doc", src); err != nil {
				t.Fatalf("doc seed %d: load: %v\n%s", docSeed, err, src)
			}
		}
		oracleDoc, err := dom.Parse(strings.NewReader(src))
		if err != nil {
			t.Fatalf("doc seed %d: oracle parse: %v\n%s", docSeed, err, src)
		}
		oracle := dom.New(oracleDoc, dom.Options{})

		for qi := 0; qi < queriesPerDoc; qi++ {
			expr := g.genQuery()
			pairs++
			fail := func(format string, args ...any) {
				t.Fatalf("seed %d query %d: %s\nexpr: %s\ndoc: %s",
					docSeed, qi, fmt.Sprintf(format, args...), expr, src)
			}

			oracleNodes, err := oracle.Eval(expr)
			if err != nil {
				fail("oracle error: %v", err)
			}
			want := dom.Keys(oracleNodes)

			for _, eng := range []struct {
				name    string
				compile func(db *DB, doc *Document) (*Query, error)
			}{
				{"VQP", func(db *DB, _ *Document) (*Query, error) { return db.Prepare(expr, WithoutCache()) }},
				{"VQP-OPT", func(db *DB, doc *Document) (*Query, error) {
					return db.Prepare(expr, WithDocument(doc), WithoutCache())
				}},
			} {
				// refStream is the batch-1 pipelined (unordered) key
				// stream; every other batch size must reproduce it
				// element for element.
				var refStream []string
				for i, b := range diffBatchSizes {
					q, err := eng.compile(dbs[i], diffDocs[i])
					if err != nil {
						fail("%s compile error: %v", eng.name, err)
					}
					res, err := q.Run(context.Background(), diffDocs[i], Ordered())
					if err != nil {
						fail("%s[batch=%d] execute error: %v", eng.name, b, err)
					}
					got, err := res.Keys()
					if err != nil {
						fail("%s[batch=%d] stream error: %v", eng.name, b, err)
					}
					if len(got) != len(want) {
						fail("%s[batch=%d] returned %d nodes, oracle %d\n got: %v\nwant: %v",
							eng.name, b, len(got), len(want), got, want)
					}
					for i := range got {
						if string(want[i]) != got[i] {
							fail("%s[batch=%d] result %d is %s, oracle has %s\n got: %v\nwant: %v",
								eng.name, b, i, got[i], want[i], got, want)
						}
					}

					pres, err := q.Run(context.Background(), diffDocs[i])
					if err != nil {
						fail("%s[batch=%d] pipelined execute error: %v", eng.name, b, err)
					}
					stream, err := pres.Keys()
					if err != nil {
						fail("%s[batch=%d] pipelined stream error: %v", eng.name, b, err)
					}
					if i == 0 {
						refStream = stream
						continue
					}
					if len(stream) != len(refStream) {
						fail("%s[batch=%d] pipelined stream has %d keys, batch=%d has %d\n got: %v\nwant: %v",
							eng.name, b, len(stream), diffBatchSizes[0], len(refStream), stream, refStream)
					}
					for j := range stream {
						if stream[j] != refStream[j] {
							fail("%s[batch=%d] pipelined key %d is %s, batch=%d has %s\n got: %v\nwant: %v",
								eng.name, b, j, stream[j], diffBatchSizes[0], refStream[j], stream, refStream)
						}
					}
				}
			}
		}
		for _, db := range dbs {
			db.Close()
		}
	}
	t.Logf("differential: %d (document, query) pairs × %d batch sizes, zero disagreements",
		pairs, len(diffBatchSizes))
}

// TestDifferentialRandom is the short deterministic sweep run by plain
// `go test`: 8 documents × 25 queries = 200 pairs.
func TestDifferentialRandom(t *testing.T) {
	runDifferential(t, 7001, 8, 25)
}
