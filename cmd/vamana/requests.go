package main

// The requests subcommand: dump a vamanad's recent and slow request
// records from its /debug/vamana/requests endpoint.
//
//	vamana requests -addr localhost:8372         recent + slow requests
//	vamana requests -addr localhost:8372 -slow   slow requests only

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"time"

	"vamana"
)

func cmdRequests(args []string) error {
	fs := flag.NewFlagSet("requests", flag.ExitOnError)
	addr := fs.String("addr", "", "the vamanad address (e.g. localhost:8372)")
	slowOnly := fs.Bool("slow", false, "print only the slow requests")
	asJSON := fs.Bool("json", false, "print the raw JSON payload")
	fs.Parse(args)
	if *addr == "" {
		return fmt.Errorf("requests needs -addr")
	}

	u := url.URL{Scheme: "http", Host: *addr, Path: "/debug/vamana/requests"}
	resp, err := http.Get(u.String())
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("requests: %s: %s", resp.Status, body)
	}
	if *asJSON {
		_, err := io.Copy(os.Stdout, resp.Body)
		return err
	}
	var payload struct {
		Recent []*vamana.QueryTrace `json:"recent"`
		Slow   []*vamana.QueryTrace `json:"slow"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		return err
	}
	if !*slowOnly {
		printRequests("recent", payload.Recent)
	}
	printRequests("slow", payload.Slow)
	return nil
}

func printRequests(title string, records []*vamana.QueryTrace) {
	fmt.Printf("%s (%d):\n", title, len(records))
	for _, t := range records {
		extra := ""
		if t.Reason != "" {
			extra = " reason=" + t.Reason
		}
		if t.Root != nil {
			extra += fmt.Sprintf(" trace=%d", t.ID)
		}
		fmt.Printf("  %s %s tenant=%s doc=%s %q %s status=%d queue=%v ttfb=%v total=%v results=%d bytes=%d%s\n",
			t.Start.Format(time.RFC3339Nano), t.Request, t.Tenant, t.Doc, t.Expr, t.Outcome, t.Status,
			t.QueueWait, t.TTFB, t.Total, t.Results, t.Bytes, extra)
	}
}
