package pager

import "sync/atomic"

// Frame is one installed page image: the immutable bytes plus at most
// one decoded form of them, which the first reader to need it attaches
// (internal/btree attaches its node with the page's slot table). Every
// layer of the pager — memory pages, the dirty overlay, committed
// images awaiting Flush, retired versions and a file pager's clean
// cache — holds frames, so a page decoded once is decoded for the live
// store and every snapshot reading the same version.
//
// A frame never changes once installed: neither its bytes nor, after
// the first Attach, its decoded form. Holders may keep one for as long
// as they like; the pager dropping it (eviction, an overwrite) only
// means the next reader gets another frame.
type Frame struct {
	data []byte
	dec  atomic.Value

	// Clock state, guarded by the pager's mu: a file pager's clean cache
	// keeps id and slot, and ref marks a frame read recently — in the
	// cache, or while it awaited Flush, which keeps only read frames.
	id   PageID
	slot int
	ref  bool
}

// NewFrame wraps img (PageSize bytes) as a frame. The caller hands img
// over: it must never modify it again.
func NewFrame(img []byte) *Frame { return &Frame{data: img} }

// Data returns the page image. Never modify it.
func (f *Frame) Data() []byte { return f.data }

// Decoded returns the attached decoded form, or nil.
func (f *Frame) Decoded() any { return f.dec.Load() }

// Attach publishes v as the frame's decoded form unless another reader
// attached one first, and returns the form that won. Every caller must
// attach values of one concrete type, each decoded from Data alone.
func (f *Frame) Attach(v any) any {
	if f.dec.CompareAndSwap(nil, v) {
		return v
	}
	return f.dec.Load()
}

// zeroFrame is the image of a memory page allocated but never written.
var zeroFrame = NewFrame(make([]byte, PageSize))

// defaultCachePages bounds a file pager's clean cache when SetCachePages
// was never called: 6,144 pages, about 50 MB.
const defaultCachePages = 6144

// frameCache is a file pager's bounded clock cache of clean frames: the
// images of pages whose newest committed version is durable, kept so
// that reading them again costs no disk read. Its map is built on the
// first insert, so opening a pager allocates nothing for it.
type frameCache struct {
	max  int
	byID map[PageID]*Frame
	ring []*Frame // clock ring, one slot per cached frame
	hand int
}

// get returns id's cached frame, marking it recently used.
func (c *frameCache) get(id PageID) *Frame {
	f := c.byID[id]
	if f != nil {
		f.ref = true
	}
	return f
}

// drop forgets id's frame, if cached, moving the ring's last frame into
// its slot.
func (c *frameCache) drop(id PageID) {
	f := c.byID[id]
	if f == nil {
		return
	}
	delete(c.byID, id)
	last := c.ring[len(c.ring)-1]
	c.ring[f.slot], last.slot = last, f.slot
	c.ring = c.ring[:len(c.ring)-1]
}

// put caches f as id's clean frame, replacing any older one, and
// reports how many frames it evicted to stay within max (the default
// when max <= 0). Eviction is second-chance: the hand clears a used
// frame's mark and passes it once.
func (c *frameCache) put(id PageID, f *Frame) (evicted uint64) {
	if c.byID == nil {
		c.byID = make(map[PageID]*Frame)
	}
	if c.max <= 0 {
		c.max = defaultCachePages
	}
	c.drop(id)
	f.id = id
	c.byID[id] = f
	if len(c.ring) < c.max {
		f.slot = len(c.ring)
		c.ring = append(c.ring, f)
		return 0
	}
	for {
		c.hand = (c.hand + 1) % len(c.ring)
		if old := c.ring[c.hand]; !old.ref {
			delete(c.byID, old.id)
			break
		}
		c.ring[c.hand].ref = false
	}
	f.slot = c.hand
	c.ring[c.hand] = f
	return 1
}
