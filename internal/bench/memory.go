package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"vamana/internal/baseline/dom"
	"vamana/internal/baseline/galax"
	"vamana/internal/baseline/pathjoin"
	"vamana/internal/core"
)

// MemoryResult reports the live-heap cost of holding one engine's
// document representation — the quantity behind the paper's scalability
// claims ("DOM-based engines load the entire document into main memory
// ... the maximum document size is bounded by the amount of physical main
// memory", §I).
type MemoryResult struct {
	Engine   Engine
	DocBytes int
	// HeapBytes is the live heap growth attributable to the loaded
	// engine (GC-settled).
	HeapBytes uint64
	Err       error
}

// MeasureEngineMemory loads src into the given engine and measures the
// settled heap growth. The VQP and VQP-OPT entries share one measurement
// (the MASS store); DOM-family engines each materialize their own tree.
func MeasureEngineMemory(src string, e Engine) MemoryResult {
	r := MemoryResult{Engine: e, DocBytes: len(src)}
	heapBefore := settledHeap()
	var keep any
	switch e {
	case EngineVQP, EngineVQPOpt:
		// VAMANA's large-document configuration is the file-backed MASS
		// store ("VAMANA exploits the large storage capacity of MASS (up
		// to several Gbs)", §VIII): pages live on disk, the heap holds
		// only the bounded page cache. DOM engines have no such mode —
		// that asymmetry is the paper's scalability argument.
		dir, err := os.MkdirTemp("", "vamana-mem-*")
		if err != nil {
			r.Err = err
			return r
		}
		defer os.RemoveAll(dir)
		// A deliberately modest cache (512 pages = 4 MiB of 8 KiB pages)
		// demonstrates the bounded-memory configuration; throughput-
		// oriented deployments raise it.
		eng, err := core.Open(core.Options{Path: filepath.Join(dir, "store.vam"), CachePages: 512})
		if err != nil {
			r.Err = err
			return r
		}
		if _, err := eng.LoadString("auction", src); err != nil {
			r.Err = err
			return r
		}
		keep = eng
	case EngineJaxen:
		doc, err := dom.Parse(strings.NewReader(src))
		if err != nil {
			r.Err = err
			return r
		}
		keep = dom.New(doc, dom.Options{})
	case EngineGalax:
		g, err := galax.New(src)
		if err != nil {
			r.Err = err
			return r
		}
		keep = g
	case EngineEXist:
		pj, err := pathjoin.New(src, pathjoin.Options{})
		if err != nil {
			r.Err = err
			return r
		}
		keep = pj
	default:
		r.Err = fmt.Errorf("bench: unknown engine %q", e)
		return r
	}
	heapAfter := settledHeap()
	runtime.KeepAlive(keep)
	if heapAfter > heapBefore {
		r.HeapBytes = heapAfter - heapBefore
	}
	// Release before returning so successive measurements don't stack.
	if c, ok := keep.(*core.Engine); ok {
		c.Close()
	}
	return r
}

func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// FormatMemoryTable renders per-engine memory footprints.
func FormatMemoryTable(results []MemoryResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Engine memory footprint for a %.1f MB document (live heap after load):\n",
		float64(results[0].DocBytes)/(1<<20))
	fmt.Fprintf(&b, "%-10s%16s%10s\n", "engine", "heap", "x doc")
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(&b, "%-10s%16s%10s\n", r.Engine, "n/a", "-")
			continue
		}
		fmt.Fprintf(&b, "%-10s%15.1fM%9.1fx\n", r.Engine,
			float64(r.HeapBytes)/(1<<20), float64(r.HeapBytes)/float64(r.DocBytes))
	}
	return b.String()
}
