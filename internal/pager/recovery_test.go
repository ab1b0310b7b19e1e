package pager

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"vamana/internal/pager/faultfs"
)

// Crash-safety tests for the pager's commit protocol, driven through the
// fault-injecting backend. The convention throughout: build a store over
// a faultfs.Backend, arm a fault (or call Crash to abandon the pager
// mid-protocol — the reusable replacement for the old "close the file
// handle under the pager" trick), take faultfs Snapshot bytes as the
// surviving file, and reopen them with FromBytes as the post-crash world.

// buildBase creates a clean two-data-page store (page 2 filled with 'A',
// page 3 with 'B', user meta "v1") and returns its snapshot plus the ids.
func buildBase(t *testing.T) (snap []byte, pa, pb PageID) {
	t.Helper()
	b := faultfs.New()
	p, err := OpenBackend(b)
	if err != nil {
		t.Fatal(err)
	}
	pa, err = p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	pb, err = p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Write(pa, fill('A')); err != nil {
		t.Fatal(err)
	}
	if err := p.Write(pb, fill('B')); err != nil {
		t.Fatal(err)
	}
	p.SetUserMeta(userMetaOf("v1"))
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Snapshot(), pa, pb
}

func userMetaOf(s string) [userMetaSize]byte {
	var m [userMetaSize]byte
	copy(m[:], s)
	return m
}

// mutate applies the canonical state transition v1 -> v2: rewrite both
// pages and the user metadata in one batch.
func mutate(t *testing.T, p *Pager, pa, pb PageID) {
	t.Helper()
	if err := p.Write(pa, fill('a')); err != nil {
		t.Fatal(err)
	}
	if err := p.Write(pb, fill('b')); err != nil {
		t.Fatal(err)
	}
	p.SetUserMeta(userMetaOf("v2"))
}

// checkAtomic asserts the store is wholly in state v1 or wholly in state
// v2, using the user metadata as the witness: pages and metadata commit
// atomically, so they must agree.
func checkAtomic(t *testing.T, p *Pager, pa, pb PageID) (state string) {
	t.Helper()
	um := p.UserMeta()
	var wantA, wantB byte
	switch {
	case bytes.HasPrefix(um[:], []byte("v2")):
		state, wantA, wantB = "v2", 'a', 'b'
	case bytes.HasPrefix(um[:], []byte("v1")):
		state, wantA, wantB = "v1", 'A', 'B'
	default:
		t.Fatalf("user meta is neither v1 nor v2: %q", um[:4])
	}
	buf := make([]byte, PageSize)
	for _, pg := range []struct {
		id   PageID
		want byte
	}{{pa, wantA}, {pb, wantB}} {
		if err := p.Read(pg.id, buf); err != nil {
			t.Fatalf("state %s: read page %d: %v", state, pg.id, err)
		}
		if buf[0] != pg.want || buf[PageSize-1] != pg.want {
			t.Fatalf("state %s: page %d holds %q..%q, want %q (torn across states)",
				state, pg.id, buf[0], buf[PageSize-1], pg.want)
		}
	}
	return state
}

func TestChecksumDetectsBitRot(t *testing.T) {
	snap, pa, _ := buildBase(t)
	b := faultfs.FromBytes(snap)
	// Flip one bit in the middle of page pa's payload behind the pager.
	b.FlipBit(int64(pa)*DiskPageSize+1234, 3)
	p, err := OpenBackend(b)
	if err != nil {
		t.Fatalf("open after payload bit flip: %v", err)
	}
	defer p.Close()
	buf := make([]byte, PageSize)
	if err := p.Read(pa, buf); !errors.Is(err, ErrChecksum) {
		t.Fatalf("read of rotted page: got %v, want ErrChecksum", err)
	}
	if m := p.Metrics(); m.ChecksumFails == 0 {
		t.Fatal("ChecksumFails counter not incremented")
	}
}

func TestMisdirectedWriteDetected(t *testing.T) {
	// Copy page pa's (valid, checksummed) disk image over page pb: each
	// byte of pb is "correct" for pa, but the id mixed into the CRC makes
	// the misdirected page fail verification at its new home.
	snap, pa, pb := buildBase(t)
	b := faultfs.FromBytes(snap)
	img := make([]byte, DiskPageSize)
	copy(img, snap[int64(pa)*DiskPageSize:int64(pa+1)*DiskPageSize])
	b.Corrupt(int64(pb)*DiskPageSize, img)
	p, err := OpenBackend(b)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	buf := make([]byte, PageSize)
	if err := p.Read(pb, buf); !errors.Is(err, ErrChecksum) {
		t.Fatalf("misdirected write: got %v, want ErrChecksum", err)
	}
}

func TestMetaPingPongFallback(t *testing.T) {
	snap, pa, pb := buildBase(t)
	junk := bytes.Repeat([]byte{0xEE}, DiskPageSize)
	for slot := int64(0); slot < 2; slot++ {
		b := faultfs.FromBytes(snap)
		b.Corrupt(slot*DiskPageSize, junk)
		p, err := OpenBackend(b)
		if err != nil {
			t.Fatalf("open with meta slot %d destroyed: %v", slot, err)
		}
		checkAtomic(t, p, pa, pb)
		if m := p.Metrics(); m.MetaFallbacks != 1 {
			t.Fatalf("slot %d: MetaFallbacks = %d, want 1", slot, m.MetaFallbacks)
		}
		p.Close()
	}

	// Both slots destroyed: the only honest outcome is a typed error.
	b := faultfs.FromBytes(snap)
	b.Corrupt(0, junk)
	b.Corrupt(DiskPageSize, junk)
	if _, err := OpenBackend(b); !errors.Is(err, ErrTornMeta) {
		t.Fatalf("open with both meta slots destroyed: got %v, want ErrTornMeta", err)
	}
}

func TestCrashAbandonsBufferedWrites(t *testing.T) {
	// The promoted "bypass Close's flush" helper: Crash() kills the
	// backend so buffered writes never reach it; the snapshot is the
	// pre-mutation store.
	snap, pa, pb := buildBase(t)
	b := faultfs.FromBytes(snap)
	p, err := OpenBackend(b)
	if err != nil {
		t.Fatal(err)
	}
	mutate(t, p, pa, pb)
	b.Crash()
	if err := p.Flush(); err == nil {
		t.Fatal("Flush on a crashed backend succeeded")
	}
	p2, err := OpenBackend(faultfs.FromBytes(b.Snapshot()))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if st := checkAtomic(t, p2, pa, pb); st != "v1" {
		t.Fatalf("crashed-before-commit store recovered to %s, want v1", st)
	}
}

// TestFlushCrashMatrix kills the backend at every write and every sync of
// a Flush commit — with the failing write torn at several byte offsets —
// and asserts the reopened store is always wholly pre-Flush or wholly
// post-Flush.
func TestFlushCrashMatrix(t *testing.T) {
	snap, pa, pb := buildBase(t)

	// Clean run to count the commit's backend operations.
	clean := faultfs.FromBytes(snap)
	p, err := OpenBackend(clean)
	if err != nil {
		t.Fatal(err)
	}
	w0, s0 := clean.Writes(), clean.Syncs()
	mutate(t, p, pa, pb)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	nWrites, nSyncs := clean.Writes()-w0, clean.Syncs()-s0
	p.Close()
	if nWrites < 4 || nSyncs < 4 {
		t.Fatalf("commit used %d writes / %d syncs; protocol expects at least 4 of each", nWrites, nSyncs)
	}

	sawPre, sawPost := false, false
	run := func(name string, arm func(b *faultfs.Backend)) {
		b := faultfs.FromBytes(snap)
		p, err := OpenBackend(b)
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		mutate(t, p, pa, pb)
		arm(b)
		if err := p.Flush(); err == nil {
			t.Fatalf("%s: Flush survived an injected fault", name)
		}
		p.Close() // backend is dead; errors expected and irrelevant

		p2, err := OpenBackend(faultfs.FromBytes(b.Snapshot()))
		if err != nil {
			t.Fatalf("%s: reopen after crash: %v", name, err)
		}
		switch checkAtomic(t, p2, pa, pb) {
		case "v1":
			sawPre = true
		case "v2":
			sawPost = true
		}
		p2.Close()
	}

	for k := 1; k <= nWrites; k++ {
		for _, tear := range []int{0, 17, DiskPageSize / 2, DiskPageSize} {
			k, tear := k, tear
			run(fmt.Sprintf("write%d/tear%d", k, tear), func(b *faultfs.Backend) {
				b.FailWrite(k, tear)
			})
		}
	}
	for k := 1; k <= nSyncs; k++ {
		k := k
		run(fmt.Sprintf("sync%d", k), func(b *faultfs.Backend) {
			b.FailSync(k)
		})
	}
	if !sawPre || !sawPost {
		t.Fatalf("matrix did not exercise both outcomes: pre=%v post=%v", sawPre, sawPost)
	}
}

func TestJournalReplayOnReopen(t *testing.T) {
	// Crash after the commit-point meta but before the in-place apply
	// completes: reopen must finish the commit from the journal.
	snap, pa, pb := buildBase(t)
	b := faultfs.FromBytes(snap)
	p, err := OpenBackend(b)
	if err != nil {
		t.Fatal(err)
	}
	mutate(t, p, pa, pb)
	// Commit layout for this batch: 1 journal header + 2 images, meta,
	// 2 in-place applies, meta. Fail the first in-place apply (write 5),
	// torn halfway.
	b.FailWrite(5, DiskPageSize/2)
	if err := p.Flush(); err == nil {
		t.Fatal("Flush survived the injected apply fault")
	}
	p.Close()

	p2, err := OpenBackend(faultfs.FromBytes(b.Snapshot()))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer p2.Close()
	if st := checkAtomic(t, p2, pa, pb); st != "v2" {
		t.Fatalf("committed journal not replayed: recovered to %s, want v2", st)
	}
	if m := p2.Metrics(); m.JournalReplays != 1 {
		t.Fatalf("JournalReplays = %d, want 1", m.JournalReplays)
	}
}

func TestVerifyFindsCorruptPages(t *testing.T) {
	snap, pa, pb := buildBase(t)
	b := faultfs.FromBytes(snap)
	b.FlipBit(int64(pb)*DiskPageSize+99, 0)
	p, err := OpenBackend(b)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	checked, corrupt, err := p.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if checked != 2 {
		t.Fatalf("Verify checked %d pages, want 2", checked)
	}
	if len(corrupt) != 1 || corrupt[0] != pb {
		t.Fatalf("Verify corrupt list = %v, want [%d]", corrupt, pb)
	}
	_ = pa
}

func TestFreedPagesSkippedByVerify(t *testing.T) {
	snap, _, pb := buildBase(t)
	b := faultfs.FromBytes(snap)
	p, err := OpenBackend(b)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Free(pb); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	// Rot the freed page: Verify must not care.
	b.FlipBit(int64(pb)*DiskPageSize+7, 1)
	checked, corrupt, err := p.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(corrupt) != 0 {
		t.Fatalf("Verify flagged freed pages: %v", corrupt)
	}
	if checked != 1 {
		t.Fatalf("Verify checked %d pages, want 1", checked)
	}
}

// TestReadsAndWritesDuringFlush parks a Flush inside its first backend
// Sync and checks that the commit holds nothing readers and writers
// need meanwhile: a clean cached page and a page awaiting the commit
// read back, and a new write and version commit go through. A page that
// must come from disk waits for the Sync — the backend sees one call at
// a time — but only its own reader waits: a read of a resident page
// started after the miss still finishes. After the Flush finishes, the
// miss returns the durable image, and a reopened copy holds what the
// Flush made durable.
func TestReadsAndWritesDuringFlush(t *testing.T) {
	b := faultfs.New()
	p, err := OpenBackend(b)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	a := mustAlloc(t, p)
	mustWrite(t, p, a, fill('a'))
	d := mustAlloc(t, p) // durable, never read: not resident
	mustWrite(t, p, d, fill('d'))
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ReadFrame(a); err != nil { // cached from now on
		t.Fatal(err)
	}
	if f, err := p.Resident(d); err != nil || f != nil {
		t.Fatalf("page %d is resident before the test: %v", d, err)
	}
	c := mustAlloc(t, p)
	mustWrite(t, p, c, fill('c'))

	entered, release := make(chan struct{}), make(chan struct{})
	parked := false
	b.BeforeOp = func(op faultfs.Op, off int64, n int) error {
		if op == faultfs.OpSync && !parked {
			parked = true
			close(entered)
			<-release
		}
		return nil
	}
	flushed := make(chan error, 1)
	go func() { flushed <- p.Flush() }()
	<-entered

	missed := make(chan error, 1)
	go func() {
		f, err := p.ReadFrame(d)
		if err == nil && !bytes.Equal(f.Data(), fill('d')) {
			err = fmt.Errorf("page %d read %q, want the durable image", d, f.Data()[:1])
		}
		missed <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the miss reach the backend
	meanwhile := make(chan error, 1)
	go func() {
		for _, want := range []struct {
			id  PageID
			img []byte
		}{{a, fill('a')}, {c, fill('c')}} {
			f, err := p.ReadFrame(want.id)
			if err != nil || !bytes.Equal(f.Data(), want.img) {
				meanwhile <- fmt.Errorf("page %d during the Flush: %v", want.id, err)
				return
			}
		}
		if err := p.Write(a, fill('A')); err != nil {
			meanwhile <- err
			return
		}
		meanwhile <- p.CommitVersion()
	}()
	select {
	case err := <-meanwhile:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(10 * time.Second):
		t.Error("reads and writes waited for the Flush's Sync")
	}
	close(release)
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	if err := <-missed; err != nil {
		t.Fatal(err)
	}
	if f, err := p.ReadFrame(a); err != nil || !bytes.Equal(f.Data(), fill('A')) {
		t.Fatalf("the write made during the Flush was lost: %v", err)
	}

	q, err := OpenBackend(faultfs.FromBytes(b.Snapshot()))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	for id, want := range map[PageID][]byte{a: fill('a'), c: fill('c')} {
		if f, err := q.ReadFrame(id); err != nil || !bytes.Equal(f.Data(), want) {
			t.Fatalf("reopened page %d does not hold the flushed image: %v", id, err)
		}
	}
}
