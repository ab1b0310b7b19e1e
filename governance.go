package vamana

import (
	"context"
	"errors"
	"fmt"
	"time"

	"vamana/internal/core"
	"vamana/internal/govern"
	"vamana/internal/xpath"
)

// Error taxonomy. Every public method returns errors that compose with
// errors.Is / errors.As:
//
//	errors.Is(err, vamana.ErrNoSuchDocument)
//	errors.Is(err, vamana.ErrDeadlineExceeded)   // engine-level
//	errors.Is(err, context.DeadlineExceeded)      // context-level (same err)
//	var be *vamana.BudgetError; errors.As(err, &be) // which budget, usage
//	var se *vamana.SyntaxError; errors.As(err, &se) // parse position
//	errors.Is(err, vamana.ErrChecksum)              // storage corruption (storage.go)
var (
	// ErrNoSuchDocument reports a document name that is not loaded.
	ErrNoSuchDocument = errors.New("vamana: no such document")
	// ErrCanceled reports a query stopped because its context was
	// canceled. It satisfies errors.Is(err, context.Canceled).
	ErrCanceled = govern.ErrCanceled
	// ErrDeadlineExceeded reports a query stopped by its context deadline
	// or per-query Timeout. It satisfies
	// errors.Is(err, context.DeadlineExceeded).
	ErrDeadlineExceeded = govern.ErrDeadlineExceeded
	// ErrBudgetExceeded reports a query stopped by a per-query resource
	// budget. The concrete error is a *BudgetError naming the budget and
	// the consumption at trip time.
	ErrBudgetExceeded = govern.ErrBudgetExceeded
)

// BudgetError carries which resource budget a query tripped (Budget:
// "results", "pages-read" or "decoded-records") and the Limit/Used pair
// at trip time. It unwraps to ErrBudgetExceeded.
type BudgetError = govern.BudgetError

// SyntaxError is an XPath parse failure with the byte offset of the
// offending token. Compile errors wrap it; recover with errors.As.
type SyntaxError = xpath.SyntaxError

// Limits is a query's resource-budget set. The zero value is fully
// unlimited; each zero field leaves that budget off. Budgets compose with
// context cancellation: whichever trips first stops the query, with a
// distinct typed error either way.
type Limits = govern.Limits

// QueryOption adjusts one query run, layered over the database's
// Options.DefaultLimits (per-query settings win field by field).
type QueryOption func(*queryConfig)

// queryConfig is one run's resolved parameters, handed to the engine
// as they are.
type queryConfig = core.RunArgs

// config resolves the DB's default limits plus per-query options.
func (db *DB) config(opts []QueryOption) queryConfig {
	cfg := queryConfig{Limits: db.defaults}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithTimeout bounds the query's wall-clock time. It composes with any
// context deadline — the earlier one wins.
func WithTimeout(d time.Duration) QueryOption {
	return func(c *queryConfig) { c.Limits.Timeout = d }
}

// WithMaxResults bounds the number of results delivered: exactly n
// results can stream out, and materializing the (n+1)th fails the query
// with a *BudgetError.
func WithMaxResults(n uint64) QueryOption {
	return func(c *queryConfig) { c.Limits.MaxResults = n }
}

// WithMaxPagesRead bounds the number of index pages the query may read
// from the pager (pages already resident and decoded are free).
func WithMaxPagesRead(n uint64) QueryOption {
	return func(c *queryConfig) { c.Limits.MaxPagesRead = n }
}

// WithMaxDecodedRecords bounds the number of clustered-index records the
// query may decode.
func WithMaxDecodedRecords(n uint64) QueryOption {
	return func(c *queryConfig) { c.Limits.MaxDecodedRecords = n }
}

// WithLimits replaces the whole budget set for this query, including the
// database defaults (zero fields mean unlimited, not "inherit").
func WithLimits(l Limits) QueryOption {
	return func(c *queryConfig) { c.Limits = l }
}

// Ordered delivers the run's results in document order. The result set
// is materialized and sorted before delivery, so budgets and
// cancellation apply while it is being built; omit it when streaming
// delivery matters more than ordering (reverse axes otherwise stream in
// axis order).
func Ordered() QueryOption {
	return func(c *queryConfig) { c.Ordered = true }
}

// From starts the run at an explicit initial context node — a FLEX key
// previously obtained from a result — instead of the document root, with
// optional variable bindings for $name references (nil for none).
func From(startKey string, vars map[string][]string) QueryOption {
	start, v := flexKey(startKey), flexVars(vars)
	return func(c *queryConfig) { c.Start, c.Vars = start, v }
}

// QueryContext is Query under governance: the run observes ctx's
// cancellation and deadline end to end — the operator pull loop, the MASS
// axis cursors and the B+-tree seeks all poll it, amortized so the
// per-tuple cost is an increment and a branch — plus any resource budgets
// from opts layered over Options.DefaultLimits. A canceled or expired ctx
// fails before the plan cache or storage is touched.
//
// A stopped query returns the matching typed error through Results.Err:
// ErrCanceled, ErrDeadlineExceeded, or a *BudgetError; its partially
// streamed results remain valid, and its resources (executor state,
// index cursors) are released.
func (db *DB) QueryContext(ctx context.Context, doc *Document, expr string, opts ...QueryOption) (*Results, error) {
	sn, err := doc.sn()
	if err != nil {
		return nil, err
	}
	it, err := db.engine.Query(ctx, sn, doc.id, expr, db.config(opts))
	return newResults(doc, it, err)
}

// wrapNoDoc translates the storage layer's unknown-document error into
// the public sentinel, annotated with the name.
func wrapNoDoc(err error, name string) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %q", ErrNoSuchDocument, name)
}
