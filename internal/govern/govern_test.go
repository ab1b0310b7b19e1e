package govern

import (
	"context"
	"errors"
	"testing"
	"time"
)

// newLimiter arms a fresh limiter, as a run's pooled state arms its own.
func newLimiter(ctx context.Context, limits Limits) *Limiter {
	return Arm(new(Limiter), ctx, limits)
}

func TestNilLimiterIsUngoverned(t *testing.T) {
	l := newLimiter(context.Background(), Limits{})
	if l != nil {
		t.Fatalf("newLimiter(Background, no limits) = %v, want nil", l)
	}
	// Every method must be a safe no-op on nil.
	if err := l.Tick(); err != nil {
		t.Fatalf("nil.Tick() = %v", err)
	}
	if err := l.AddResults(1); err != nil {
		t.Fatalf("nil.AddResults() = %v", err)
	}
	if err := l.AddPages(1); err != nil {
		t.Fatalf("nil.AddPages() = %v", err)
	}
	if err := l.AddRecords(1); err != nil {
		t.Fatalf("nil.AddRecords() = %v", err)
	}
	if err := l.Err(); err != nil {
		t.Fatalf("nil.Err() = %v", err)
	}
	if u := l.Usage(); u != (Usage{}) {
		t.Fatalf("nil.Usage() = %+v", u)
	}
}

// poll ticks l through one check interval, in which Tick polls
// cancellation and the deadline once, and returns the first error.
func poll(l *Limiter) error {
	for i := 0; i < checkInterval; i++ {
		if err := l.Tick(); err != nil {
			return err
		}
	}
	return nil
}

func TestNilContextTreatedAsBackground(t *testing.T) {
	if l := newLimiter(nil, Limits{}); l != nil {
		t.Fatalf("newLimiter(nil ctx, no limits) = %v, want nil", l)
	}
	l := newLimiter(nil, Limits{MaxResults: 1})
	if l == nil {
		t.Fatal("newLimiter(nil ctx, budget) = nil, want limiter")
	}
	if err := poll(l); err != nil {
		t.Fatalf("poll() = %v", err)
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	l := newLimiter(ctx, Limits{})
	if l == nil {
		t.Fatal("cancelable ctx should produce a limiter")
	}
	if err := poll(l); err != nil {
		t.Fatalf("poll() before cancel = %v", err)
	}
	cancel()
	err := poll(l)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("poll() after cancel = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ErrCanceled should satisfy errors.Is(err, context.Canceled)")
	}
	// Sticky.
	if err := l.Err(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Err() = %v, want sticky ErrCanceled", err)
	}
	if err := l.AddResults(1); !errors.Is(err, ErrCanceled) {
		// AddResults does not consult err first; but Tick must.
		_ = err
	}
	// Tick's sticky-error check rides the amortized poll, so the recorded
	// error resurfaces within one check interval.
	var terr error
	for i := 0; i < checkInterval; i++ {
		if terr = l.Tick(); terr != nil {
			break
		}
	}
	if !errors.Is(terr, ErrCanceled) {
		t.Fatalf("Tick() within %d calls after trip = %v, want sticky ErrCanceled", checkInterval, terr)
	}
}

func TestTickAmortization(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	l := newLimiter(ctx, Limits{})
	cancel()
	// The first checkInterval-1 ticks may pass (amortized); by the
	// checkInterval-th the cancellation must be seen.
	var err error
	for i := 0; i < checkInterval; i++ {
		if err = l.Tick(); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("cancellation not detected within %d ticks: %v", checkInterval, err)
	}
}

func TestContextDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	l := newLimiter(ctx, Limits{})
	err := poll(l)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("poll() past deadline = %v, want ErrDeadlineExceeded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("ErrDeadlineExceeded should satisfy errors.Is(err, context.DeadlineExceeded)")
	}
}

func TestTimeoutBudget(t *testing.T) {
	// Timeout alone (no cancelable context) must still govern.
	l := newLimiter(context.Background(), Limits{Timeout: time.Nanosecond})
	if l == nil {
		t.Fatal("Timeout budget should produce a limiter")
	}
	time.Sleep(time.Millisecond)
	if err := poll(l); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("poll() past Timeout = %v, want ErrDeadlineExceeded", err)
	}
}

func TestTimeoutTightensContextDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(time.Hour))
	defer cancel()
	l := newLimiter(ctx, Limits{Timeout: time.Nanosecond})
	time.Sleep(time.Millisecond)
	if err := poll(l); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("tighter Timeout not honored: %v", err)
	}
	// And the looser Timeout must not loosen the context deadline.
	ctx2, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	l2 := newLimiter(ctx2, Limits{Timeout: time.Hour})
	if err := poll(l2); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired ctx deadline not honored with loose Timeout: %v", err)
	}
}

func TestResultBudget(t *testing.T) {
	l := newLimiter(context.Background(), Limits{MaxResults: 2})
	if err := l.AddResults(1); err != nil {
		t.Fatalf("AddResults(1) #1 = %v", err)
	}
	if err := l.AddResults(1); err != nil {
		t.Fatalf("AddResults(1) #2 = %v", err)
	}
	err := l.AddResults(1)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("AddResults(1) #3 = %v, want ErrBudgetExceeded", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("budget error should be a *BudgetError: %v", err)
	}
	if be.Budget != "results" || be.Limit != 2 || be.Used != 3 {
		t.Fatalf("BudgetError = %+v", be)
	}
}

func TestPageAndRecordBudgets(t *testing.T) {
	l := newLimiter(context.Background(), Limits{MaxPagesRead: 1, MaxDecodedRecords: 1})
	if err := l.AddPages(1); err != nil {
		t.Fatalf("AddPages within budget = %v", err)
	}
	err := l.AddPages(1)
	var be *BudgetError
	if !errors.As(err, &be) || be.Budget != "pages-read" {
		t.Fatalf("AddPages over budget = %v", err)
	}

	l2 := newLimiter(context.Background(), Limits{MaxDecodedRecords: 1})
	if err := l2.AddRecords(1); err != nil {
		t.Fatalf("AddRecords within budget = %v", err)
	}
	err = l2.AddRecords(1)
	if !errors.As(err, &be) || be.Budget != "decoded-records" {
		t.Fatalf("AddRecords over budget = %v", err)
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatal("BudgetError should unwrap to ErrBudgetExceeded")
	}
}

func TestUsageSnapshot(t *testing.T) {
	l := newLimiter(context.Background(), Limits{MaxResults: 100})
	l.AddResults(3)
	l.AddPages(5)
	l.AddRecords(7)
	u := l.Usage()
	if u.Results != 3 || u.PagesRead != 5 || u.DecodedRecords != 7 {
		t.Fatalf("Usage = %+v", u)
	}
	if u.Elapsed < 0 {
		t.Fatalf("Elapsed = %v", u.Elapsed)
	}
}

func TestBudgetErrorMessage(t *testing.T) {
	be := &BudgetError{Budget: "pages-read", Limit: 10, Used: 11}
	want := "vamana: query pages-read budget exceeded (limit 10, used 11)"
	if be.Error() != want {
		t.Fatalf("Error() = %q, want %q", be.Error(), want)
	}
}
