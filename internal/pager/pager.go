// Package pager provides fixed-size page storage for the MASS indexes. A
// Pager stores pages either wholly in memory or backed by a file on disk.
// Higher layers (internal/btree) own page contents; the pager is
// responsible for durable allocation, reads, writes, the free list, the
// one cache of page images (frames, see frame.go) — and, for file-backed
// stores, crash safety:
//
//   - every on-disk page carries a CRC32C trailer, stamped on write and
//     verified on read, so torn writes and bit rot surface as a typed
//     ErrChecksum instead of garbage propagating up the B+-trees;
//   - metadata lives in two "ping-pong" meta pages (pages 0 and 1) with a
//     monotonic epoch, so a crash during a metadata write always leaves
//     one older-but-valid copy to recover from (ErrTornMeta is returned
//     only when neither survives);
//   - client writes are buffered and committed by Flush through a
//     double-write journal: new page images are made durable in a journal
//     region past the data pages before any page is overwritten in place,
//     making every Flush atomic — after a crash at any point, reopening
//     yields either the pre-Flush or the post-Flush store, never a mix.
//
// Open transparently recovers: it picks the newer valid meta page and
// replays a committed-but-unapplied journal. Page payloads are verified
// lazily, on first read.
package pager

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
)

// DiskPageSize is the on-disk footprint of every page: the client payload
// plus the integrity trailer.
const DiskPageSize = 8192

// pageTrailerSize is the per-page integrity trailer: 4 reserved bytes
// (covered by the checksum, zero for now) and the 4-byte CRC32C.
const pageTrailerSize = 8

// PageSize is the size in bytes of every page payload — the unit clients
// read and write.
const PageSize = DiskPageSize - pageTrailerSize

// PageID identifies a page. Pages 0 and 1 are reserved for the pager's
// ping-pong metadata; the first allocatable page is 2.
type PageID uint32

// InvalidPage is the zero PageID, never returned by Allocate.
const InvalidPage PageID = 0

// firstDataPage is the first allocatable page id; pages below it hold the
// two metadata copies.
const firstDataPage PageID = 2

var (
	// ErrPageRange is returned when a page id is out of range.
	ErrPageRange = errors.New("pager: page id out of range")
	// ErrClosed is returned when the pager has been closed.
	ErrClosed = errors.New("pager: closed")
	// ErrChecksum is returned when a page read back from disk fails its
	// CRC32C verification — a torn write, bit rot, or a truncated file.
	// Errors wrapping it identify the page.
	ErrChecksum = errors.New("pager: page checksum mismatch")
	// ErrTornMeta is returned by Open when no valid metadata copy exists:
	// both ping-pong meta pages are corrupt (or the file is not a VAMANA
	// page file), or a committed journal they reference is unreadable.
	ErrTornMeta = errors.New("pager: no valid metadata page")
)

// Pager is a page allocator and reader/writer. It is safe for concurrent
// use.
type Pager struct {
	mu      sync.Mutex
	backend Backend  // nil in memory mode
	mem     []*Frame // memory mode storage, indexed by PageID
	npages  PageID   // number of pages including the two meta pages
	free    []PageID // free list (in-memory; persisted in the meta page on Flush)
	epoch   uint64   // meta epoch of the newest durable meta page

	// pending holds committed page images not yet durable (file mode
	// only). Flush makes the whole batch durable atomically via the
	// journal, then moves the images someone read into clean: the
	// bounded cache of durable images that spares re-reading them from
	// disk.
	pending   map[PageID]*Frame
	clean     frameCache
	metaDirty bool // allocation/free-list/userMeta changes since last commit

	// Snapshot machinery — see mvcc.go. dirty buffers writes since the
	// last version commit (always on file pagers; on memory pagers only
	// while a snapshot pin or an update bracket is live). versions holds
	// retired committed images still visible to pinned epochs.
	dirty    map[PageID]*Frame
	vEpoch   uint64
	vPages   PageID // npages at the last version commit
	pins     map[uint64]int
	versions map[PageID][]pageVersion
	inTxn    bool
	txnMark  txnMark

	userMeta [userMetaSize]byte
	closed   bool
	m        Metrics // plain counters, guarded by mu

	// commitMu serializes durable commits (commit.go), which hold mu only
	// briefly, and guards what they alone use: epoch and scratch. ioMu
	// hands the backend one call at a time. Lock order: commitMu, mu,
	// ioMu.
	commitMu sync.Mutex
	ioMu     sync.Mutex
	scratch  []byte // DiskPageSize buffer the commit writes pages from
}

// Metrics counts the pager's I/O activity since open. All fields are
// cumulative; Pages is the current page count (including the meta pages).
type Metrics struct {
	Reads  uint64 // page reads served (memory copies, buffered writes, or file reads); Resident look-ups are not reads
	Writes uint64 // page writes accepted (buffered until commit on file backends)
	Allocs uint64 // pages allocated (fresh or recycled)
	Frees  uint64 // pages returned to the free list
	Pages  uint64 // current page count including the reserved meta pages

	// Durability and corruption counters (file backends only).
	Commits        uint64 // Flush commits that reached the backend
	ChecksumFails  uint64 // page reads that failed CRC verification
	MetaFallbacks  uint64 // opens that lost one meta copy and recovered from the other
	JournalReplays uint64 // opens that completed an interrupted commit from its journal

	// Snapshot counters (see mvcc.go).
	VersionCommits uint64 // version commits that published buffered writes
	PagesStashed   uint64 // committed images retired into version lists for live snapshots

	// Clean-frame cache (file backends only).
	Evictions uint64 // clean frames evicted to stay within the cache bound
	Cached    uint64 // clean frames resident now
}

// Metrics returns a snapshot of the pager's I/O counters.
func (p *Pager) Metrics() Metrics {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.m
	m.Pages = uint64(p.npages)
	m.Cached = uint64(len(p.clean.byID))
	return m
}

// SetCachePages bounds a file pager's clean-frame cache to n page images
// (n <= 0 restores the default of 6,144, about 50 MB); lowering the
// bound empties the cache. Memory pagers hold every page and ignore it.
func (p *Pager) SetCachePages(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n <= 0 {
		n = defaultCachePages
	}
	if n < len(p.clean.ring) {
		p.m.Evictions += uint64(len(p.clean.byID))
		p.clean = frameCache{}
	}
	p.clean.max = n
}

// userMetaSize is the number of client metadata bytes persisted with the
// pager metadata. The MASS store records its catalog tree root here.
const userMetaSize = 32

// UserMeta returns the client metadata bytes persisted with the pager.
func (p *Pager) UserMeta() [userMetaSize]byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.userMeta
}

// SetUserMeta stores client metadata; it is persisted by the next Flush.
func (p *Pager) SetUserMeta(m [userMetaSize]byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.userMeta = m
	p.metaDirty = true
}

// NewMemory returns a Pager that keeps all pages in memory. Memory pagers
// have no durability concerns: writes apply immediately, Flush is a no-op
// and no checksums are kept.
func NewMemory() *Pager {
	p := &Pager{
		npages:   firstDataPage,
		dirty:    make(map[PageID]*Frame),
		pins:     make(map[uint64]int),
		versions: make(map[PageID][]pageVersion),
	}
	p.mem = make([]*Frame, firstDataPage)
	return p
}

// Open opens (or creates) a file-backed pager at path. An existing file
// has its metadata validated (picking the newer of the two meta copies)
// and any interrupted commit completed from its journal.
func Open(path string) (*Pager, error) {
	b, err := openFileBackend(path)
	if err != nil {
		return nil, err
	}
	p, err := OpenBackend(b)
	if err != nil {
		b.Close()
		return nil, err
	}
	return p, nil
}

// OpenBackend opens (or creates) a pager over an arbitrary Backend. The
// caller retains ownership of the backend only on error; on success the
// pager closes it.
func OpenBackend(b Backend) (*Pager, error) {
	p := &Pager{
		backend:  b,
		pending:  make(map[PageID]*Frame),
		dirty:    make(map[PageID]*Frame),
		pins:     make(map[uint64]int),
		versions: make(map[PageID][]pageVersion),
		scratch:  make([]byte, DiskPageSize),
	}
	size, err := b.Size()
	if err != nil {
		return nil, fmt.Errorf("pager: size: %w", err)
	}
	if size == 0 {
		// Fresh file: establish the first valid meta copy so a crash
		// immediately after creation still reopens cleanly.
		p.npages = firstDataPage
		p.metaDirty = true
		if err := p.commit(); err != nil {
			return nil, err
		}
		return p, nil
	}
	if err := p.recoverLocked(size); err != nil {
		return nil, err
	}
	return p, nil
}

// Allocate returns a fresh (or recycled) page id. The page contents are
// undefined until written.
func (p *Pager) Allocate() (PageID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return InvalidPage, ErrClosed
	}
	p.m.Allocs++
	p.metaDirty = true
	if n := len(p.free); n > 0 {
		id := p.free[n-1]
		p.free = p.free[:n-1]
		return id, nil
	}
	id := p.npages
	p.npages++
	if p.backend == nil {
		// No image until the first write installs one; reads of a page
		// never written see zeros (see residentLocked).
		p.mem = append(p.mem, nil)
	}
	return id, nil
}

// Free returns a page to the free list for reuse.
func (p *Pager) Free(id PageID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if id < firstDataPage || id >= p.npages {
		return ErrPageRange
	}
	p.m.Frees++
	p.metaDirty = true
	p.free = append(p.free, id)
	return nil
}

// Read copies the contents of page id into buf, which must be PageSize
// bytes long. File-backed reads verify the page's CRC32C and return an
// error wrapping ErrChecksum on mismatch.
func (p *Pager) Read(id PageID, buf []byte) error {
	f, err := p.ReadFrame(id)
	return copyImage(buf, f, err)
}

// copyImage finishes a Read: it copies the frame a read returned into
// buf, which must be PageSize bytes long.
func copyImage(buf []byte, f *Frame, err error) error {
	if err == nil && len(buf) != PageSize {
		err = fmt.Errorf("pager: read buffer is %d bytes, want %d", len(buf), PageSize)
	}
	if err == nil {
		copy(buf, f.data)
	}
	return err
}

// ReadFrame returns page id's installed frame without copying it,
// reading the page from disk into the clean cache when it is not
// resident. Never modify the frame's image: the pager never changes an
// image once installed, so it stays valid — and unchanged — for as long
// as the caller holds it.
func (p *Pager) ReadFrame(id PageID) (*Frame, error) { return p.frame(id, 0, true, true) }

// Resident returns page id's frame when the pager holds it in memory,
// and nil (with no error) when reading it would take a disk read — so a
// caller can charge for the read before asking ReadFrame for it.
// Resident look-ups do not count as reads.
func (p *Pager) Resident(id PageID) (*Frame, error) { return p.frame(id, 0, true, false) }

// frame serves ReadFrame (read) and Resident (!read) for the live pager
// (live) and for views pinned at epoch.
//
// A miss reads the disk without mu, so that a read waiting for the
// backend — which a commit's Sync holds — stalls no other reader. Back
// under mu it looks again: a frame installed or stashed meanwhile wins,
// and a commit that finished meanwhile (it may have moved the page on
// disk) sends the read round once more.
func (p *Pager) frame(id PageID, epoch uint64, live, read bool) (*Frame, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var img []byte
	for {
		if err := p.checkLocked(id); err != nil {
			return nil, err
		}
		f, err := p.residentLocked(id, epoch, live)
		if !read || err != nil {
			return f, err
		}
		if f == nil && img != nil {
			f = NewFrame(img)
			p.m.Evictions += p.clean.put(id, f)
		}
		if f != nil {
			p.m.Reads++
			return f, nil
		}
		commits := p.m.Commits
		p.mu.Unlock()
		img, err = p.readDisk(id, make([]byte, DiskPageSize))
		p.mu.Lock()
		if errors.Is(err, ErrChecksum) {
			p.m.ChecksumFails++
		}
		if err != nil {
			return nil, err
		}
		if p.m.Commits != commits {
			img = nil
		}
	}
}

func (p *Pager) checkLocked(id PageID) error {
	if p.closed {
		return ErrClosed
	}
	if id >= p.npages {
		return ErrPageRange
	}
	return nil
}

// residentLocked resolves page id to the in-memory frame a reader sees,
// or nil when it must be read from disk. A live read sees the writes
// buffered since the last version commit first (the writer always reads
// its own writes); a read pinned at epoch sees the retired version that
// was current then, if the page has been overwritten since.
func (p *Pager) residentLocked(id PageID, epoch uint64, live bool) (*Frame, error) {
	if live {
		if len(p.dirty) != 0 {
			if f, ok := p.dirty[id]; ok {
				return f, nil
			}
		}
	} else if vs := p.versions[id]; len(vs) > 0 {
		// The first version tagged at or after the pinned epoch holds the
		// image that was current then; a page never overwritten since the
		// pin falls through to the committed layer.
		i := sort.Search(len(vs), func(i int) bool { return vs[i].asOf >= epoch })
		if i < len(vs) {
			if vs[i].f == nil {
				return nil, fmt.Errorf("%w: page %d has no committed image at epoch %d", ErrChecksum, id, epoch)
			}
			return vs[i].f, nil
		}
	}
	if p.backend == nil {
		if f := p.mem[id]; f != nil {
			return f, nil
		}
		return zeroFrame, nil
	}
	if f, ok := p.pending[id]; ok {
		f.ref = true // read while pending: Flush keeps it in the clean cache
		return f, nil
	}
	return p.clean.get(id), nil
}

// readDisk reads and verifies page id from the backend into disk
// (DiskPageSize bytes) and returns its payload, disk[:PageSize]. Short
// reads (a page past the durable end of file) fail verification like any
// other torn page; the caller counts the failure.
func (p *Pager) readDisk(id PageID, disk []byte) ([]byte, error) {
	p.ioMu.Lock()
	n, err := p.backend.ReadAt(disk, int64(id)*DiskPageSize)
	p.ioMu.Unlock()
	if err != nil && n < DiskPageSize {
		clear(disk[n:])
		// A short read at the tail is a verification failure below, not
		// an I/O error; a failed full-length read is surfaced as-is.
		if n == 0 && !errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("pager: read page %d: %w", id, err)
		}
	}
	if !verifyPage(disk, id) {
		return nil, fmt.Errorf("%w: page %d", ErrChecksum, id)
	}
	return disk[:PageSize:PageSize], nil
}

// Write stores a copy of buf (PageSize bytes) as the contents of page
// id; the caller may reuse buf afterwards. On file backends the write is
// buffered; Flush commits the whole batch atomically.
func (p *Pager) Write(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("pager: write buffer is %d bytes, want %d", len(buf), PageSize)
	}
	return p.WriteFrame(id, NewFrame(append(make([]byte, 0, PageSize), buf...)))
}

// WriteFrame installs f as the contents of page id without copying its
// image, which the caller must never modify again. This is how an index
// hands over a page it built and keeps reading it — one copy of the
// page, held by both, with the index's decoded form already attached.
func (p *Pager) WriteFrame(id PageID, f *Frame) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.checkLocked(id); err != nil {
		return err
	}
	if len(f.data) != PageSize {
		return fmt.Errorf("pager: write buffer is %d bytes, want %d", len(f.data), PageSize)
	}
	p.m.Writes++
	// Memory fast path: with no snapshot pinned, no update bracket open
	// and no dirty overlay to shadow it, the write becomes the committed
	// image at once. It replaces the old frame rather than copying over
	// it, because a reader may still hold the old one.
	if p.backend == nil && !p.inTxn && len(p.pins) == 0 && len(p.dirty) == 0 {
		p.mem[id] = f
		p.vPages = p.npages
		return nil
	}
	p.dirty[id] = f
	return nil
}

// Flush atomically commits all buffered page writes and the pager
// metadata (page count, free list, user metadata). In memory mode it is a
// no-op. A crash at any point during Flush leaves the store recoverable
// to either its pre-Flush or post-Flush state.
func (p *Pager) Flush() error {
	if p.backend != nil {
		p.commitMu.Lock()
		defer p.commitMu.Unlock()
		return p.commit()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	// Nothing to make durable, but an outstanding dirty overlay (a
	// snapshot was pinned when the writes landed) still becomes the
	// committed state — unless an update bracket is open, in which case
	// its in-flight writes stay buffered until it resolves.
	if p.inTxn {
		return nil
	}
	return p.commitVersionLocked()
}

// NumPages returns the number of pages, including the reserved meta pages.
func (p *Pager) NumPages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int(p.npages)
}

// InMemory reports whether the pager has no backing file.
func (p *Pager) InMemory() bool { return p.backend == nil }

// Close flushes metadata and releases the backing file, if any.
func (p *Pager) Close() error {
	if err := p.Flush(); err != nil && err != ErrClosed {
		return err
	}
	p.commitMu.Lock() // no commit is writing when the backend closes
	defer p.commitMu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	p.clean = frameCache{}
	if p.backend != nil {
		return p.backend.Close()
	}
	p.mem = nil
	return nil
}

// Verify checks the CRC32C of every durable allocated page (free-listed
// pages hold stale images and are skipped) and returns the number of
// pages checked plus the ids that failed verification. Buffered writes
// are committed first so the scan sees the current state. Memory pagers
// have nothing to verify.
func (p *Pager) Verify() (checked int, corrupt []PageID, err error) {
	if p.backend != nil {
		if err := p.Flush(); err != nil {
			return 0, nil, err
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, nil, ErrClosed
	}
	if p.backend == nil {
		return 0, nil, nil
	}
	skip := make(map[PageID]bool, len(p.free))
	for _, id := range p.free {
		skip[id] = true
	}
	disk := make([]byte, DiskPageSize)
	for id := firstDataPage; id < p.npages; id++ {
		if skip[id] {
			continue
		}
		checked++
		if _, err := p.readDisk(id, disk); err != nil {
			if errors.Is(err, ErrChecksum) {
				p.m.ChecksumFails++
				corrupt = append(corrupt, id)
				continue
			}
			return checked, corrupt, err
		}
	}
	return checked, corrupt, nil
}
