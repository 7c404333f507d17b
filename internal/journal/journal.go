// Package journal is the serving layer's append-only request journal: one
// NDJSON record per handled request, written as traffic arrives, so an
// incident's exact request mix — endpoints, configurations, arrival
// spacing, outcomes, latencies — survives the incident and can be replayed
// later as a reproducible benchmark input (the dpmserve loadgen's -replay
// mode consumes a journal through Reader).
//
// The format is deliberately boring: a header line naming the schema
// version and the journal's start time, then one JSON object per line.
// Boring buys crash tolerance — a process killed mid-append leaves at
// worst one torn final line, which Reader detects and skips — and
// greppability: `jq` and `grep` work on an incident journal as-is.
//
// Writers rotate: when the active file would exceed the size cap, it is
// renamed to <path>.1 (replacing the previous rotation) and a fresh file
// is started, so a journaling server's disk footprint is bounded at about
// twice the cap no matter how long it serves.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Version is the journal schema version, written in the header line and
// checked by Reader.
const Version = 1

// Endpoint names used in Record.Endpoint by the serving layer.
const (
	EndpointSimulate   = "simulate"
	EndpointTournament = "tournament"
)

// Outcome labels used in Record.Outcome.
const (
	OutcomeHit      = "hit"      // served from cache or singleflight dedup
	OutcomeRun      = "run"      // a fresh simulation was executed
	OutcomeError    = "error"    // the request failed
	OutcomeCanceled = "canceled" // the client went away mid-request
	// OutcomeThrottled marks a request refused by admission control
	// (429). It is journaled — the refusals are part of the incident's
	// traffic shape — but carries no fingerprint (the work never ran).
	OutcomeThrottled = "throttled"
)

// header is the first line of every journal file.
type header struct {
	Journal     string `json:"journal"`
	Version     int    `json:"version"`
	StartUnixMs int64  `json:"start_unix_ms"`
}

// Record is one journaled request. T is the wall-clock offset from the
// journal's start time — relative, so replay needs no clock alignment and
// journals diff cleanly across runs.
type Record struct {
	// T is seconds since the journal's start.
	T float64 `json:"t"`
	// Endpoint names the request class (EndpointSimulate, ...).
	Endpoint string `json:"endpoint"`
	// Scenario/Tasks/Seed reconstruct a catalog-scenario simulate request
	// exactly; ConfigDigest instead fingerprints an inline-config request
	// (reproducible as a cache key, but not re-issuable from the journal
	// alone).
	Scenario     string `json:"scenario,omitempty"`
	Tasks        int    `json:"tasks,omitempty"`
	Seed         int64  `json:"seed,omitempty"`
	ConfigDigest string `json:"config_digest,omitempty"`
	// Fingerprint is the engine cache key the request resolved to — the
	// identity replay verifies against.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Outcome classifies how the request ended (OutcomeHit, ...).
	Outcome string `json:"outcome"`
	// Status is the HTTP status served.
	Status int `json:"status,omitempty"`
	// LatencyMs is the server-side handling latency in milliseconds.
	LatencyMs float64 `json:"latency_ms"`
}

// Replayable reports whether the record carries enough to re-issue the
// request (catalog scenario records do; inline-config records only carry
// a digest).
func (r Record) Replayable() bool {
	return r.Endpoint == EndpointSimulate && r.Scenario != ""
}

// Options configures a Writer.
type Options struct {
	// MaxBytes rotates the active file when an append would push it past
	// this size; ≤0 selects 64 MiB. At most one rotated file (<path>.1)
	// is kept.
	MaxBytes int64
	// Start anchors Record.T offsets; the zero value means time.Now().
	Start time.Time
}

const defaultMaxBytes = 64 << 20

// Writer appends records to an NDJSON journal file. Appends are
// mutex-serialised and flushed per record — a journal is an audit
// artifact; buffering whole pages would trade away exactly the tail the
// next incident needs. Safe for concurrent use.
type Writer struct {
	mu       sync.Mutex
	f        *os.File
	w        *bufio.Writer
	path     string
	maxBytes int64
	size     int64
	start    time.Time
	appended int64
	rotated  int64
	closed   bool
}

// Open creates (or truncates) the journal at path and writes the header.
func Open(path string, opts Options) (*Writer, error) {
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = defaultMaxBytes
	}
	if opts.Start.IsZero() {
		opts.Start = time.Now()
	}
	w := &Writer{path: path, maxBytes: opts.MaxBytes, start: opts.Start}
	if err := w.openFile(); err != nil {
		return nil, err
	}
	return w, nil
}

// openFile starts a fresh journal file with a header line; callers hold
// w.mu (or are the constructor).
func (w *Writer) openFile() error {
	f, err := os.OpenFile(w.path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	w.f = f
	w.w = bufio.NewWriter(f)
	w.size = 0
	hdr, err := json.Marshal(header{Journal: "godpm", Version: Version, StartUnixMs: w.start.UnixMilli()})
	if err != nil {
		return err
	}
	return w.writeLine(hdr)
}

// writeLine appends one line and flushes; callers hold w.mu.
func (w *Writer) writeLine(line []byte) error {
	if _, err := w.w.Write(line); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := w.w.WriteByte('\n'); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	w.size += int64(len(line)) + 1
	return nil
}

// Path returns the active journal file's path.
func (w *Writer) Path() string { return w.path }

// Offset converts an absolute time to the journal's T offset.
func (w *Writer) Offset(t time.Time) float64 { return t.Sub(w.start).Seconds() }

// Append journals one record, rotating first if the append would breach
// the size cap.
func (w *Writer) Append(r Record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("journal: writer closed")
	}
	if w.size+int64(len(line))+1 > w.maxBytes && w.size > 0 {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	if err := w.writeLine(line); err != nil {
		return err
	}
	w.appended++
	return nil
}

// rotateLocked closes the active file, moves it to <path>.1 (replacing
// any previous rotation) and opens a fresh file; callers hold w.mu.
func (w *Writer) rotateLocked() error {
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := os.Rename(w.path, w.path+".1"); err != nil {
		return fmt.Errorf("journal: rotate: %w", err)
	}
	w.rotated++
	return w.openFile()
}

// Stats reports the writer's counters: records appended and rotations
// performed over its lifetime.
func (w *Writer) Stats() (appended, rotated int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appended, w.rotated
}

// Close flushes and closes the journal.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return fmt.Errorf("journal: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// Reader iterates a journal's records, skipping (and counting) torn or
// malformed lines instead of failing — the file may have been written by
// a process that died mid-append, and everything before the tear is still
// good data.
type Reader struct {
	sc      *bufio.Scanner
	start   time.Time
	version int
	skipped int
	readHdr bool
}

// NewReader wraps an NDJSON journal stream.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	return &Reader{sc: sc}
}

// Next returns the next record, or io.EOF when the journal is exhausted.
// The header line (consumed transparently) and any undecodable lines are
// skipped; the latter increment Skipped.
func (r *Reader) Next() (Record, error) {
	for r.sc.Scan() {
		line := bytes.TrimSpace(r.sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if !r.readHdr {
			r.readHdr = true
			var h header
			if err := json.Unmarshal(line, &h); err == nil && h.Journal == "godpm" {
				if h.Version != Version {
					return Record{}, fmt.Errorf("journal: unsupported version %d (reader speaks %d)", h.Version, Version)
				}
				r.version = h.Version
				r.start = time.UnixMilli(h.StartUnixMs)
				continue
			}
			// No header (hand-built journal): fall through and try the
			// line as a record.
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil || rec.Endpoint == "" {
			// Torn tail from a crashed writer, or junk. Skip, count,
			// keep reading — the tear may not be the last line if the
			// file was concatenated from rotations.
			r.skipped++
			continue
		}
		return rec, nil
	}
	if err := r.sc.Err(); err != nil {
		return Record{}, fmt.Errorf("journal: %w", err)
	}
	return Record{}, io.EOF
}

// Skipped counts undecodable lines passed over so far.
func (r *Reader) Skipped() int { return r.skipped }

// ReadFile loads every record of the journal at path. The skipped count
// reports torn/malformed lines that were passed over.
func ReadFile(path string) (recs []Record, skipped int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	r := NewReader(f)
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return recs, r.Skipped(), nil
		}
		if err != nil {
			return recs, r.Skipped(), err
		}
		recs = append(recs, rec)
	}
}
