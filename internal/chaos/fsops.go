package chaos

import (
	"fmt"
	"time"

	"godpm/internal/engine"
	"godpm/internal/workload"
)

// FaultFS wraps an engine.FS with a deterministic fault schedule: the
// live-injection filesystem a chaos'd disk store runs on. Torn writes
// write a scheduled prefix of the payload and then fail; transient and
// permanent faults fail the operation outright. Reads are not on the FS
// seam (see engine.FS), so a faulted write can at worst cost the entry —
// never hand corrupt bytes to a reader that the Disk cache's
// decode-and-heal path won't catch.
type FaultFS struct {
	inner engine.FS
	inj   *Injector
}

// NewFaultFS wraps inner with the spec's schedule rooted at seed.
func NewFaultFS(inner engine.FS, seed workload.Seed, spec Spec) *FaultFS {
	return &FaultFS{inner: inner, inj: NewInjector(seed.Split("fs"), spec)}
}

// fail maps a decision onto an error, applying latency; nil means the
// operation may proceed.
func (f *FaultFS) fail(op string, d Decision) error {
	if d.Latency > 0 {
		time.Sleep(d.Latency)
	}
	switch d.Fault {
	case FaultNone:
		return nil
	default:
		return fmt.Errorf("chaos: %s: %s: %w", op, d.Fault, ErrInjected)
	}
}

func (f *FaultFS) CreateTemp(dir, pattern string) (engine.File, error) {
	d := f.inj.Next()
	// Torn/corrupt make no sense for creation; only hard faults apply.
	if d.Fault == FaultTorn || d.Fault == FaultCorrupt {
		d.Fault = FaultNone
	}
	if err := f.fail("createtemp", d); err != nil {
		return nil, err
	}
	file, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	d := f.inj.Next()
	if d.Fault == FaultTorn || d.Fault == FaultCorrupt {
		d.Fault = FaultNone
	}
	if err := f.fail("rename", d); err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(name string) error {
	d := f.inj.Next()
	// Only transient faults: a Remove that "permanently" fails while the
	// file persists would wedge healing paths in ways no real filesystem
	// exhibits.
	if d.Fault != FaultTransient {
		d.Fault = FaultNone
	}
	if err := f.fail("remove", d); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

func (f *FaultFS) SyncDir(dir string) error {
	d := f.inj.Next()
	if d.Fault == FaultTorn || d.Fault == FaultCorrupt {
		d.Fault = FaultNone
	}
	if err := f.fail("syncdir", d); err != nil {
		return err
	}
	return f.inner.SyncDir(dir)
}

// faultFile applies the schedule to writes and syncs on one open file.
type faultFile struct {
	engine.File
	fs *FaultFS
}

func (ff *faultFile) Write(p []byte) (int, error) {
	d := ff.fs.inj.Next()
	if d.Fault == FaultTorn {
		// The torn write: a scheduled prefix reaches the file, then the
		// write fails — the classic partial-write hazard.
		n := int(d.Frac * float64(len(p)))
		if n > 0 {
			ff.File.Write(p[:n])
		}
		return n, fmt.Errorf("chaos: write: torn: %w", ErrInjected)
	}
	if d.Fault == FaultCorrupt {
		d.Fault = FaultTransient
	}
	if err := ff.fs.fail("write", d); err != nil {
		return 0, err
	}
	return ff.File.Write(p)
}

func (ff *faultFile) Sync() error {
	d := ff.fs.inj.Next()
	if d.Fault == FaultTorn || d.Fault == FaultCorrupt {
		d.Fault = FaultTransient
	}
	if err := ff.fs.fail("sync", d); err != nil {
		return err
	}
	return ff.File.Sync()
}
