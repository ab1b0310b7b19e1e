// Quickstart: open an in-memory VAMANA database, index a small XML
// document, and run a few XPath queries through the public API.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"vamana"
)

const doc = `<site>
  <people>
    <person id="person144">
      <name>Yung Flach</name>
      <emailaddress>Flach@auth.gr</emailaddress>
      <address>
        <street>92 Pfisterer St</street>
        <city>Monroe</city>
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
    </person>
  </people>
</site>`

func main() {
	db, err := vamana.Open(vamana.Options{}) // in-memory store
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	d, err := db.LoadXMLString("site", doc)
	if err != nil {
		log.Fatal(err)
	}

	// A simple downward query.
	run(db, d, "//person/name")

	// Reverse axes work the same way: who watches auctions?
	run(db, d, "//watches/watch/ancestor::person/name")

	// Value predicates hit the value index in a single probe.
	run(db, d, "//name[text()='Yung Flach']/following-sibling::emailaddress")

	// Statistics are exact and cheap: COUNT and TC probes.
	persons, _ := d.CountName("person")
	tc, _ := d.TextCount("Monroe")
	fmt.Printf("COUNT(person) = %d, TC(\"Monroe\") = %d\n", persons, tc)
}

func run(db *vamana.DB, d *vamana.Document, expr string) {
	q, err := db.Prepare(expr, vamana.WithDocument(d))
	if err != nil {
		log.Fatal(err)
	}
	// Give every query a governance envelope: a deadline plus a result
	// budget. Well-behaved queries never notice; runaways are killed with
	// a typed error (vamana.ErrDeadlineExceeded, *vamana.BudgetError).
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	res, err := q.Run(ctx, d, vamana.WithMaxResults(100))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s\n", expr)
	for n, err := range res.All() {
		if err != nil {
			log.Fatal(err)
		}
		sv, err := res.StringValue()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-12s %-14s %q\n", n.Key, n.Name, sv)
	}
}
