package pager

import (
	"fmt"
	"io"
	"os"
)

// Backend is the pager's storage seam: the minimal random-access file
// surface the pager needs. The production implementation wraps *os.File;
// tests substitute fault-injecting implementations (see
// internal/pager/faultfs) to exercise torn writes, I/O errors and
// crash-recovery paths that a real filesystem cannot produce on demand.
//
// The pager serializes all Backend calls under its own lock, so
// implementations do not need to be safe for concurrent use by the pager
// (though test harnesses may touch them from other goroutines and
// typically lock internally).
type Backend interface {
	io.ReaderAt
	io.WriterAt
	// Sync makes previously written data durable. Commit-protocol
	// ordering depends on it: writes before a Sync must be durable before
	// any write after it.
	Sync() error
	// Size returns the current backing size in bytes.
	Size() (int64, error)
	Close() error
}

// fileBackend adapts *os.File to Backend.
type fileBackend struct{ f *os.File }

// NewFileBackend opens (or creates) path as a pager Backend for
// OpenBackend; plain Open does both steps.
func NewFileBackend(path string) (Backend, error) {
	return openFileBackend(path)
}

func openFileBackend(path string) (Backend, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pager: open %s: %w", path, err)
	}
	return &fileBackend{f: f}, nil
}

func (b *fileBackend) ReadAt(p []byte, off int64) (int, error)  { return b.f.ReadAt(p, off) }
func (b *fileBackend) WriteAt(p []byte, off int64) (int, error) { return b.f.WriteAt(p, off) }
func (b *fileBackend) Sync() error                              { return b.f.Sync() }
func (b *fileBackend) Close() error                             { return b.f.Close() }

func (b *fileBackend) Size() (int64, error) {
	st, err := b.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
