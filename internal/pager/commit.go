package pager

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
)

// On-disk integrity and commit protocol.
//
// Every DiskPageSize page ends in an 8-byte trailer: 4 reserved bytes
// (zero, covered by the checksum) and a CRC32C over the rest of the page
// with the page's id mixed in — so a page written to the wrong offset
// (a misdirected write) fails verification just like a torn one.
//
// Metadata lives in two ping-pong copies (pages 0 and 1). Each commit
// bumps a monotonic epoch and writes to slot epoch%2, which is always the
// slot NOT holding the newest valid copy; a torn meta write therefore
// destroys at most the older copy. Open picks the valid copy with the
// higher epoch.
//
// Flush commits buffered page writes with a double-write journal:
//
//  1. journal header page(s) + full images of every dirty page are
//     written past the data region and synced;
//  2. meta (epoch+1, referencing the journal, describing the POST-commit
//     state) is written and synced — this is the commit point;
//  3. images are applied in place and synced;
//  4. meta (epoch+2, journal cleared) is written and synced.
//
// Crash before 2: the old meta wins; the journal tail is garbage and
// ignored. Crash between 2 and 4: Open finds the journal reference,
// verifies every journal page, and replays the images (idempotent —
// full-page redo). Only if the committed journal itself fails
// verification does Open refuse with ErrTornMeta; in-place applies have
// then partially overwritten pages, and completing or undoing them is
// impossible, so a typed error is the honest outcome.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// pageCRC computes the trailer checksum: CRC32C over the page bytes
// before the checksum field, then the page id.
func pageCRC(disk []byte, id PageID) uint32 {
	crc := crc32.Update(0, castagnoli, disk[:DiskPageSize-4])
	var idb [4]byte
	binary.LittleEndian.PutUint32(idb[:], uint32(id))
	return crc32.Update(crc, castagnoli, idb[:])
}

// stampPage writes the trailer checksum into a DiskPageSize buffer.
func stampPage(disk []byte, id PageID) {
	binary.LittleEndian.PutUint32(disk[DiskPageSize-4:], pageCRC(disk, id))
}

// verifyPage checks a DiskPageSize buffer's trailer checksum.
func verifyPage(disk []byte, id PageID) bool {
	return binary.LittleEndian.Uint32(disk[DiskPageSize-4:]) == pageCRC(disk, id)
}

// metaMagic identifies a pager file (format 2: checksummed pages,
// ping-pong metadata, journaled commits). Format-1 files (unchecksummed,
// single meta page) are not readable by this version.
var metaMagic = [8]byte{'V', 'A', 'M', 'A', 'N', 'A', 'P', '2'}

// journalMagic identifies a journal header page.
var journalMagic = [8]byte{'V', 'A', 'M', 'A', 'J', 'R', 'N', '1'}

// Meta page payload layout (offsets within the page):
//
//	[0:8]   magic
//	[8:16]  epoch
//	[16:20] npages (including the two meta pages)
//	[20:24] journal start page (0 = no journal)
//	[24:28] journal image count
//	[28:60] user metadata
//	[60:64] free-list length
//	[64:..] free-list entries (u32 each)
const (
	metaOffEpoch     = 8
	metaOffNPages    = 16
	metaOffJStart    = 20
	metaOffJCount    = 24
	metaOffUserMeta  = 28
	metaOffFreeCount = metaOffUserMeta + userMetaSize
	metaOffFree      = metaOffFreeCount + 4
	// maxMetaFree is the free-list capacity of a meta page. Overflowing
	// entries are leaked on reopen, which is safe (never reused but never
	// referenced).
	maxMetaFree = (PageSize - metaOffFree) / 4
)

// Journal header payload layout. The first header page carries the magic,
// epoch and total image count followed by destination page ids;
// subsequent header pages are raw arrays of further ids. Image pages
// follow the header pages in the same order, each stamped with its
// DESTINATION page id so replay can copy the disk bytes verbatim.
const (
	jhdrOffCount   = 16
	jhdrOffIDs     = 20
	jhdrFirstCap   = (PageSize - jhdrOffIDs) / 4
	jhdrRestCap    = PageSize / 4
	jhdrSentinelID = PageID(0xFFFFFFFF) // headers are stamped with sentinel - index
)

// journalHeaderPages returns how many header pages a commit of n images
// needs.
func journalHeaderPages(n int) int {
	if n <= jhdrFirstCap {
		return 1
	}
	return 1 + (n-jhdrFirstCap+jhdrRestCap-1)/jhdrRestCap
}

// commit is the file-backed Flush: the four-step journaled commit
// described above. The caller holds commitMu, which keeps commits — and
// their use of epoch and scratch — one at a time. commit takes mu only to
// gather what it makes durable and to publish the result: while it
// writes and syncs, reads of resident pages go on, and so do writes,
// which a later commit makes durable. A no-op when nothing changed since
// the last commit.
func (p *Pager) commit() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	// Fold the dirty overlay into the committed (pending) layer first —
	// durability implies version-commit. An open update bracket keeps
	// its in-flight writes out: only previously committed state is
	// journaled.
	if !p.inTxn {
		if err := p.commitVersionLocked(); err != nil {
			p.mu.Unlock()
			return err
		}
	}
	if !p.metaDirty && len(p.pending) == 0 {
		p.mu.Unlock()
		return nil
	}
	ids := make([]PageID, 0, len(p.pending))
	for id := range p.pending {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	frames := make([]*Frame, len(ids))
	for i, id := range ids {
		frames[i] = p.pending[id]
	}
	st := metaState{npages: p.npages, userMeta: p.userMeta, free: append([]PageID(nil), p.free...)}
	p.metaDirty = false // an allocation or free meanwhile sets it again
	p.mu.Unlock()

	err := p.writeCommit(&st, ids, frames)

	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		p.metaDirty = true
		return err
	}
	// The images are durable now. Those read while pending (or replacing
	// a cached one) move into the clean cache, so reading them again
	// costs no disk read; the rest leave memory. An image a version
	// commit replaced during the writes stays pending.
	for i, id := range ids {
		if p.pending[id] != frames[i] {
			continue
		}
		if frames[i].ref {
			p.m.Evictions += p.clean.put(id, frames[i])
		}
		delete(p.pending, id)
	}
	p.m.Commits++
	return nil
}

// writeCommit makes the images and the metadata st durable; see commit.
func (p *Pager) writeCommit(st *metaState, ids []PageID, frames []*Frame) error {
	if len(ids) == 0 {
		// Metadata-only commit: the meta page write is itself atomic
		// (single-page ping-pong), no journal needed.
		p.epoch++
		return p.writeMeta(st, 0, 0)
	}

	// Step 1: journal header pages + images past the data region.
	jstart := st.npages
	nhdr := journalHeaderPages(len(ids))
	if err := p.writeJournal(jstart, ids, frames, nhdr); err != nil {
		return err
	}
	if err := p.sync(); err != nil {
		return fmt.Errorf("pager: sync journal: %w", err)
	}

	// Step 2: commit point — meta referencing the journal.
	p.epoch++
	if err := p.writeMeta(st, jstart, uint32(len(ids))); err != nil {
		return err
	}

	// Step 3: apply images in place.
	for i, id := range ids {
		if err := p.writeDisk(id, frames[i].data); err != nil {
			return err
		}
	}
	if err := p.sync(); err != nil {
		return fmt.Errorf("pager: sync apply: %w", err)
	}

	// Step 4: clear the journal reference.
	p.epoch++
	return p.writeMeta(st, 0, 0)
}

// writeAt and sync are the commit's backend calls. ioMu keeps them apart
// from disk reads, which run meanwhile, so that the backend still sees
// one call at a time.
func (p *Pager) writeAt(b []byte, off int64) error {
	p.ioMu.Lock()
	defer p.ioMu.Unlock()
	_, err := p.backend.WriteAt(b, off)
	return err
}

func (p *Pager) sync() error {
	p.ioMu.Lock()
	defer p.ioMu.Unlock()
	return p.backend.Sync()
}

// writeDisk stamps payload with id's trailer and writes the disk page at
// its home offset.
func (p *Pager) writeDisk(id PageID, payload []byte) error {
	copy(p.scratch, payload)
	for i := PageSize; i < DiskPageSize; i++ {
		p.scratch[i] = 0
	}
	stampPage(p.scratch, id)
	if err := p.writeAt(p.scratch, int64(id)*DiskPageSize); err != nil {
		return fmt.Errorf("pager: write page %d: %w", id, err)
	}
	return nil
}

// writeJournal writes the journal header pages and the images of ids
// (frames, in the same order) starting at page jstart. Header pages are
// stamped with sentinel ids (they have no home page); image pages are
// stamped with their destination id.
func (p *Pager) writeJournal(jstart PageID, ids []PageID, frames []*Frame, nhdr int) error {
	idx := 0
	for h := 0; h < nhdr; h++ {
		for i := range p.scratch {
			p.scratch[i] = 0
		}
		off, cap_ := jhdrOffIDs, jhdrFirstCap
		if h == 0 {
			copy(p.scratch[:8], journalMagic[:])
			binary.LittleEndian.PutUint64(p.scratch[8:16], p.epoch+1)
			binary.LittleEndian.PutUint32(p.scratch[jhdrOffCount:], uint32(len(ids)))
		} else {
			off, cap_ = 0, jhdrRestCap
		}
		for i := 0; i < cap_ && idx < len(ids); i++ {
			binary.LittleEndian.PutUint32(p.scratch[off:off+4], uint32(ids[idx]))
			off += 4
			idx++
		}
		hid := jhdrSentinelID - PageID(h)
		stampPage(p.scratch, hid)
		if err := p.writeAt(p.scratch, int64(jstart+PageID(h))*DiskPageSize); err != nil {
			return fmt.Errorf("pager: write journal header %d: %w", h, err)
		}
	}
	for i, id := range ids {
		copy(p.scratch, frames[i].data)
		for j := PageSize; j < DiskPageSize; j++ {
			p.scratch[j] = 0
		}
		stampPage(p.scratch, id)
		at := int64(jstart+PageID(nhdr+i)) * DiskPageSize
		if err := p.writeAt(p.scratch, at); err != nil {
			return fmt.Errorf("pager: write journal image for page %d: %w", id, err)
		}
	}
	return nil
}

// writeMeta builds, stamps, writes and syncs the meta page describing
// st (page count, user metadata, free list) for the current epoch into
// slot epoch%2.
func (p *Pager) writeMeta(st *metaState, jstart PageID, jcount uint32) error {
	for i := range p.scratch {
		p.scratch[i] = 0
	}
	copy(p.scratch[:8], metaMagic[:])
	binary.LittleEndian.PutUint64(p.scratch[metaOffEpoch:], p.epoch)
	binary.LittleEndian.PutUint32(p.scratch[metaOffNPages:], uint32(st.npages))
	binary.LittleEndian.PutUint32(p.scratch[metaOffJStart:], uint32(jstart))
	binary.LittleEndian.PutUint32(p.scratch[metaOffJCount:], jcount)
	copy(p.scratch[metaOffUserMeta:metaOffUserMeta+userMetaSize], st.userMeta[:])
	nfree := len(st.free)
	if nfree > maxMetaFree {
		nfree = maxMetaFree
	}
	binary.LittleEndian.PutUint32(p.scratch[metaOffFreeCount:], uint32(nfree))
	off := metaOffFree
	for i := 0; i < nfree; i++ {
		binary.LittleEndian.PutUint32(p.scratch[off:off+4], uint32(st.free[i]))
		off += 4
	}
	slot := PageID(p.epoch % 2)
	stampPage(p.scratch, slot)
	if err := p.writeAt(p.scratch, int64(slot)*DiskPageSize); err != nil {
		return fmt.Errorf("pager: write meta page %d: %w", slot, err)
	}
	if err := p.sync(); err != nil {
		return fmt.Errorf("pager: sync meta: %w", err)
	}
	return nil
}

// metaState is one decoded meta page.
type metaState struct {
	epoch    uint64
	npages   PageID
	jstart   PageID
	jcount   uint32
	userMeta [userMetaSize]byte
	free     []PageID
}

// readMetaSlot reads and validates meta slot (0 or 1). Returns nil for a
// missing, foreign, or corrupt slot; zeroed reports whether the slot was
// entirely blank (an expected state for young files, not corruption).
func (p *Pager) readMetaSlot(slot PageID) (st *metaState, zeroed bool) {
	buf := make([]byte, DiskPageSize)
	n, err := p.backend.ReadAt(buf, int64(slot)*DiskPageSize)
	if n < DiskPageSize && (err == nil || err == io.EOF) {
		for i := n; i < DiskPageSize; i++ {
			buf[i] = 0
		}
	} else if err != nil && err != io.EOF {
		return nil, false
	}
	zeroed = true
	for _, b := range buf {
		if b != 0 {
			zeroed = false
			break
		}
	}
	if zeroed || !verifyPage(buf, slot) || [8]byte(buf[:8]) != metaMagic {
		return nil, zeroed
	}
	st = &metaState{
		epoch:  binary.LittleEndian.Uint64(buf[metaOffEpoch:]),
		npages: PageID(binary.LittleEndian.Uint32(buf[metaOffNPages:])),
		jstart: PageID(binary.LittleEndian.Uint32(buf[metaOffJStart:])),
		jcount: binary.LittleEndian.Uint32(buf[metaOffJCount:]),
	}
	copy(st.userMeta[:], buf[metaOffUserMeta:metaOffUserMeta+userMetaSize])
	nfree := binary.LittleEndian.Uint32(buf[metaOffFreeCount:])
	if nfree > maxMetaFree {
		return nil, false
	}
	off := metaOffFree
	for i := uint32(0); i < nfree; i++ {
		st.free = append(st.free, PageID(binary.LittleEndian.Uint32(buf[off:off+4])))
		off += 4
	}
	if st.npages < firstDataPage {
		return nil, false
	}
	return st, false
}

// recoverLocked restores pager state from an existing file: pick the
// newer valid meta copy, then complete any committed-but-unapplied
// journal it references.
func (p *Pager) recoverLocked(size int64) error {
	a, azero := p.readMetaSlot(0)
	b, bzero := p.readMetaSlot(1)
	st := a
	if st == nil || (b != nil && b.epoch > st.epoch) {
		st = b
	}
	if st == nil {
		return fmt.Errorf("%w: neither meta copy is valid (not a VAMANA page file, or both copies torn)", ErrTornMeta)
	}
	// Exactly one surviving copy beyond the file's first commit means the
	// other was lost to a torn write and this open recovered around it.
	if (a == nil) != (b == nil) && !(azero || bzero) {
		p.m.MetaFallbacks++
	}
	p.epoch = st.epoch
	p.npages = st.npages
	p.vPages = st.npages
	p.userMeta = st.userMeta
	p.free = st.free
	if st.jcount > 0 {
		if err := p.replayJournalLocked(st, size); err != nil {
			return err
		}
	}
	return nil
}

// replayJournalLocked completes an interrupted commit: verify the whole
// journal, apply every image to its home page, sync, and clear the
// journal reference. Full-page redo is idempotent, so replaying an
// already-applied journal is harmless.
func (p *Pager) replayJournalLocked(st *metaState, size int64) error {
	// The journal was fully synced before the meta referencing it, so it
	// must lie entirely within the file; a reference past the end is
	// corruption (and guards the allocations below against garbage).
	if int64(st.jcount) > size/DiskPageSize {
		return fmt.Errorf("%w: journal image count %d exceeds file size", ErrTornMeta, st.jcount)
	}
	nhdr := journalHeaderPages(int(st.jcount))
	if end := int64(st.jstart) + int64(nhdr) + int64(st.jcount); end*DiskPageSize > size {
		return fmt.Errorf("%w: journal [%d..%d) extends past end of file", ErrTornMeta, st.jstart, end)
	}
	ids := make([]PageID, 0, st.jcount)
	buf := make([]byte, DiskPageSize)
	readJournalPage := func(i int, id PageID) error {
		n, err := p.backend.ReadAt(buf, int64(st.jstart+PageID(i))*DiskPageSize)
		if err != nil && !(err == io.EOF && n == DiskPageSize) {
			return fmt.Errorf("%w: journal page %d unreadable: %v", ErrTornMeta, i, err)
		}
		if !verifyPage(buf, id) {
			return fmt.Errorf("%w: journal page %d failed verification", ErrTornMeta, i)
		}
		return nil
	}
	for h := 0; h < nhdr; h++ {
		if err := readJournalPage(h, jhdrSentinelID-PageID(h)); err != nil {
			return err
		}
		off, cap_ := jhdrOffIDs, jhdrFirstCap
		if h == 0 {
			if [8]byte(buf[:8]) != journalMagic {
				return fmt.Errorf("%w: journal header magic mismatch", ErrTornMeta)
			}
			if got := binary.LittleEndian.Uint64(buf[8:16]); got != st.epoch {
				return fmt.Errorf("%w: journal epoch %d does not match meta epoch %d", ErrTornMeta, got, st.epoch)
			}
			if got := binary.LittleEndian.Uint32(buf[jhdrOffCount:]); got != st.jcount {
				return fmt.Errorf("%w: journal image count %d does not match meta %d", ErrTornMeta, got, st.jcount)
			}
		} else {
			off, cap_ = 0, jhdrRestCap
		}
		for i := 0; i < cap_ && len(ids) < int(st.jcount); i++ {
			ids = append(ids, PageID(binary.LittleEndian.Uint32(buf[off:off+4])))
			off += 4
		}
	}
	// Verify every image before applying any: replay must be all-or-
	// nothing, and the failure mode is a typed error, not a partial redo.
	for i, id := range ids {
		if id < firstDataPage || id >= st.npages {
			return fmt.Errorf("%w: journal image %d targets page %d out of range", ErrTornMeta, i, id)
		}
		if err := readJournalPage(nhdr+i, id); err != nil {
			return err
		}
	}
	for i, id := range ids {
		if err := readJournalPage(nhdr+i, id); err != nil {
			return err
		}
		if _, err := p.backend.WriteAt(buf, int64(id)*DiskPageSize); err != nil {
			return fmt.Errorf("pager: replay page %d: %w", id, err)
		}
	}
	if err := p.backend.Sync(); err != nil {
		return fmt.Errorf("pager: sync replay: %w", err)
	}
	p.epoch++
	if err := p.writeMeta(st, 0, 0); err != nil {
		return err
	}
	p.m.JournalReplays++
	return nil
}
