// Auctionsearch: a realistic analytics session over an XMark auction
// document — the workload class the paper's introduction motivates. It
// generates ~2 MB of auction data, indexes it, and answers a series of
// questions mixing forward axes, reverse axes, and value predicates.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"vamana"
	"vamana/internal/xmark"
)

func main() {
	src := xmark.GenerateString(xmark.Config{Factor: xmark.FactorForBytes(2 << 20), Seed: 7})
	db, err := vamana.Open(vamana.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	t0 := time.Now()
	doc, err := db.LoadXMLString("auction", src)
	if err != nil {
		log.Fatal(err)
	}
	st, _ := doc.Stats()
	fmt.Printf("indexed %.1f MB of auction data in %v: %d nodes, %d elements\n\n",
		float64(len(src))/(1<<20), time.Since(t0).Round(time.Millisecond), st.Nodes, st.Elements)

	// Who lives in Vermont? (value predicate -> one value-index probe)
	names := collectValues(db, doc, "//province[text()='Vermont']/ancestor::person/name")
	fmt.Printf("persons with a Vermont address: %d\n", len(names))
	for i, n := range names {
		if i == 5 {
			fmt.Println("  ...")
			break
		}
		fmt.Printf("  %s\n", n)
	}

	// Which persons watch more than two auctions? (count() predicate)
	watchers := collectValues(db, doc, "//person[count(watches/watch) > 2]/name")
	fmt.Printf("\npersons watching more than two auctions: %d\n", len(watchers))

	// Every closed auction's price, reached through a sibling axis.
	prices := collectValues(db, doc, "//itemref/following-sibling::price")
	fmt.Printf("\nclosed-auction prices (via following-sibling): %d\n", len(prices))

	// Mixed: sellers of featured auctions.
	featured := count(db, doc, "//open_auction[type='Featured']/seller")
	fmt.Printf("featured-auction sellers: %d\n", featured)

	// The running example: exact-value lookup for one person.
	email := collectValues(db, doc, "//name[text()='Yung Flach']/following-sibling::emailaddress")
	fmt.Printf("\nYung Flach's email: %v\n", email)
}

func collectValues(db *vamana.DB, doc *vamana.Document, expr string) []string {
	q, err := db.Prepare(expr, vamana.WithDocument(doc))
	if err != nil {
		log.Fatalf("%s: %v", expr, err)
	}
	res, err := q.Run(context.Background(), doc)
	if err != nil {
		log.Fatalf("%s: %v", expr, err)
	}
	var out []string
	for _, err := range res.All() {
		if err != nil {
			log.Fatal(err)
		}
		sv, err := res.StringValue()
		if err != nil {
			log.Fatal(err)
		}
		out = append(out, sv)
	}
	return out
}

func count(db *vamana.DB, doc *vamana.Document, expr string) int {
	q, err := db.Prepare(expr, vamana.WithDocument(doc))
	if err != nil {
		log.Fatalf("%s: %v", expr, err)
	}
	res, err := q.Run(context.Background(), doc)
	if err != nil {
		log.Fatalf("%s: %v", expr, err)
	}
	n := 0
	for range res.AllKeys() {
		n++
	}
	if err := res.Err(); err != nil {
		log.Fatal(err)
	}
	return n
}
