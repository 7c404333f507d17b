package chaos

import (
	"errors"
	"os"
	"path/filepath"
	"sync"

	"godpm/internal/engine"
	"godpm/internal/workload"
)

// ErrCrashed is returned by every CrashFS operation at and after its
// crash point: the simulated machine has lost power.
var ErrCrashed = errors.New("chaos: crashed")

// CrashFS is a page-cache model of a filesystem for crash-point
// recovery sweeps. Written bytes are buffered in memory ("the page
// cache") and reach the real file only on Sync — or partially at the
// crash, where a deterministic, seed-derived prefix of each file's
// unsynced bytes is flushed, modelling the arbitrary subset of dirty
// pages that made it to the platter before power loss.
//
// Every mutating operation (CreateTemp, Write, Sync, Rename, Remove,
// SyncDir) is one indexed op. Constructing the model with CrashAt=k
// executes ops 0..k-1 normally and fails op k and everything after with
// ErrCrashed; sweeping k over Ops() (measured on a no-crash run) visits
// every intermediate state one Put can crash in. Crash() forces the
// crash immediately — the "power loss right after Put returned" case,
// which is where an unsynced store exhibits torn final entries. Settle
// flushes everything, for runs that survive.
//
// The model covers data-path durability, not directory-metadata
// reordering: a completed Rename is visible after the crash. Safe for
// concurrent use, though crash sweeps are by nature single-writer.
type CrashFS struct {
	seed    workload.Seed
	crashAt int // op index that crashes; <0 = never

	mu      sync.Mutex
	ops     int
	crashed bool
	files   map[string]*crashFile // keyed by current path
}

type crashFile struct {
	content []byte // everything written
	synced  int    // prefix durably on the real file
}

// NewCrashFS builds the model. crashAt < 0 means no scheduled crash
// (use Crash to force one, or Settle to finish cleanly).
func NewCrashFS(seed workload.Seed, crashAt int) *CrashFS {
	return &CrashFS{seed: seed, crashAt: crashAt, files: make(map[string]*crashFile)}
}

// op admits one mutating operation, crashing if the schedule says so.
func (f *CrashFS) op() error {
	k := f.ops
	f.ops++
	if f.crashed || (f.crashAt >= 0 && k >= f.crashAt) {
		if !f.crashed {
			f.crashLocked()
		}
		return ErrCrashed
	}
	return nil
}

// Ops reports how many mutating operations were admitted (including the
// crashing one) — the sweep bound for the next run.
func (f *CrashFS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Crashed reports whether the crash has happened.
func (f *CrashFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Crash forces the crash now: unsynced bytes partially flush, every
// later operation returns ErrCrashed.
func (f *CrashFS) Crash() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.crashed {
		f.crashLocked()
	}
}

// crashLocked flushes a deterministic prefix of each file's unsynced
// bytes — the dirty pages that happened to reach the disk.
func (f *CrashFS) crashLocked() {
	f.crashed = true
	for path, cf := range f.files {
		if cf.synced >= len(cf.content) {
			continue
		}
		// Keyed by base name, not full path, so the flushed fraction for a
		// given entry does not depend on which scratch directory the test
		// ran in.
		frac := f.seed.Split("crash:" + filepath.Base(path)).RNG().Float64()
		n := cf.synced + int(frac*float64(len(cf.content)-cf.synced))
		os.WriteFile(path, cf.content[:n], 0o644)
		cf.synced = n
	}
}

// Settle flushes every buffer fully — the end of a run that did not
// crash. The model stays usable afterwards.
func (f *CrashFS) Settle() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for path, cf := range f.files {
		if cf.synced >= len(cf.content) {
			continue
		}
		if err := os.WriteFile(path, cf.content, 0o644); err != nil {
			return err
		}
		cf.synced = len(cf.content)
	}
	return nil
}

func (f *CrashFS) CreateTemp(dir, pattern string) (engine.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.op(); err != nil {
		return nil, err
	}
	// Reserve the real name (empty file) exactly like the OS would; the
	// payload stays in the buffer until a sync or the crash flush.
	real, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	name := real.Name()
	real.Close()
	f.files[name] = &crashFile{}
	return &crashHandle{fs: f, path: name}, nil
}

func (f *CrashFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.op(); err != nil {
		return err
	}
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	if cf, ok := f.files[oldpath]; ok {
		delete(f.files, oldpath)
		f.files[newpath] = cf
	}
	return nil
}

func (f *CrashFS) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.op(); err != nil {
		return err
	}
	delete(f.files, name)
	return os.Remove(name)
}

func (f *CrashFS) SyncDir(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	// Directory metadata ordering is not modelled; the op still counts so
	// sweeps visit the same indices in both Sync modes.
	return f.op()
}

// crashHandle is one open file in the model.
type crashHandle struct {
	fs   *CrashFS
	path string
}

func (h *crashHandle) Name() string { return h.path }

func (h *crashHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.fs.op(); err != nil {
		return 0, err
	}
	cf, ok := h.fs.files[h.path]
	if !ok {
		return 0, os.ErrClosed
	}
	cf.content = append(cf.content, p...)
	return len(p), nil
}

func (h *crashHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if err := h.fs.op(); err != nil {
		return err
	}
	cf, ok := h.fs.files[h.path]
	if !ok {
		return os.ErrClosed
	}
	if err := os.WriteFile(h.path, cf.content, 0o644); err != nil {
		return err
	}
	cf.synced = len(cf.content)
	return nil
}

// Close is not a durability point (the page cache outlives the fd) and
// not an op; it never fails in the model.
func (h *crashHandle) Close() error { return nil }
