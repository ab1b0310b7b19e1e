package mass

import (
	"fmt"
	"sync"
	"testing"

	"vamana/internal/flex"
	"vamana/internal/xmark"
)

// TestConcurrentReads runs many goroutines issuing interleaved scans and
// statistics probes against one store. Run with -race to validate the
// locking discipline.
func TestConcurrentReads(t *testing.T) {
	s := openMem(t)
	src := xmark.GenerateString(xmark.Config{Factor: 0.002, Seed: 71})
	d := loadDoc(t, s, "auction", src)

	wantPersons, err := s.CountName(d, "person")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				switch (g + i) % 3 {
				case 0:
					keys, err := drainAll(s.AxisScan(d, flex.Root, AxisDescendant, NodeTest{Type: TestName, Name: "person"}))
					if err != nil {
						errs <- err
						return
					}
					if n := len(keys); uint64(n) != wantPersons {
						errs <- fmt.Errorf("goroutine %d: scan saw %d persons, want %d", g, n, wantPersons)
						return
					}
				case 1:
					if got, err := s.CountName(d, "person"); err != nil || got != wantPersons {
						errs <- fmt.Errorf("goroutine %d: count %d (%v)", g, got, err)
						return
					}
				default:
					if _, err := cur(s).TextCount(d, "Yung Flach", ""); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
