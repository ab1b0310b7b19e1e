package cost

import (
	"strings"
	"testing"

	"vamana/internal/flex"
	"vamana/internal/mass"
)

// TestMemoProbesCachesWithinEpoch verifies that repeated probes hit the
// memo and agree with the store, and that a document update (which bumps
// the statistics epoch) invalidates the cached counts.
func TestMemoProbesCachesWithinEpoch(t *testing.T) {
	s, d := loadXMark(t, 0.05)
	m := NewMemoProbes(s)

	test := mass.NodeTest{Type: mass.TestName, Name: "person"}
	want, err := pinned(t, s).TestCount(d, test, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := m.TestCount(d, test, "")
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("probe %d: TestCount = %d, want %d", i, got, want)
		}
	}
	hits, misses := m.Stats()
	if misses != 1 || hits != 2 {
		t.Fatalf("after 3 identical probes: hits=%d misses=%d, want 2/1", hits, misses)
	}

	// An update bumps the epoch; the memo must re-probe and see the new
	// count.
	first := make([]flex.Key, 1)
	if n, err := s.AxisScan(d, "", mass.AxisDescendant, test).NextKeys(first); n != 1 {
		t.Fatalf("no person node to delete: %v", err)
	}
	if err := deleteSubtree(s, d, first[0]); err != nil {
		t.Fatal(err)
	}
	got, err := m.TestCount(d, test, "")
	if err != nil {
		t.Fatal(err)
	}
	if got != want-1 {
		t.Fatalf("after delete: TestCount = %d, want %d", got, want-1)
	}
}

// TestMemoProbesSecondDocIndependent checks that one document's update
// does not invalidate another document's memo generation.
func TestMemoProbesSecondDocIndependent(t *testing.T) {
	s, d1 := loadXMark(t, 0.05)
	d2, err := s.LoadDocument("tiny", strings.NewReader("<r><a/><a/></r>"))
	if err != nil {
		t.Fatal(err)
	}
	m := NewMemoProbes(s)
	test := mass.NodeTest{Type: mass.TestName, Name: "a"}
	if _, err := m.TestCount(d2, test, ""); err != nil {
		t.Fatal(err)
	}
	// Mutate d1 only.
	person := mass.NodeTest{Type: mass.TestName, Name: "person"}
	first := make([]flex.Key, 1)
	if n, _ := s.AxisScan(d1, "", mass.AxisDescendant, person).NextKeys(first); n == 1 {
		if err := deleteSubtree(s, d1, first[0]); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := m.TestCount(d2, test, ""); err != nil || got != 2 {
		t.Fatalf("d2 TestCount = %d, %v; want 2", got, err)
	}
	hits, _ := m.Stats()
	if hits != 1 {
		t.Fatalf("d2 second probe should hit the memo; hits=%d", hits)
	}
}

// deleteSubtree removes the subtree at k in one committed transaction.
func deleteSubtree(s *mass.Store, d mass.DocID, k flex.Key) error {
	u, err := s.BeginUpdate()
	if err != nil {
		return err
	}
	if err := u.DeleteSubtree(d, k); err != nil {
		u.Rollback()
		return err
	}
	_, err = u.Commit()
	return err
}
