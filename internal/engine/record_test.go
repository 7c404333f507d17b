package engine

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"godpm/internal/sim"
	"godpm/internal/soc"
	"godpm/internal/workload"
)

// richResult builds a result with every size-relevant field populated so
// the compressed/uncompressed paths both carry real payload.
func richResult() *soc.Result {
	return &soc.Result{
		EnergyJ:    12.345,
		BusEnergyJ: 0.5,
		Duration:   3 * sim.Sec,
		AvgTempC:   55.5,
		PeakTempC:  71.25,
		TasksDone:  42,
		Completed:  true,
		FinalSoC:   0.875,
		EnergyByIP: map[string]float64{
			"cpu": 8.0, "dsp": 2.345, "wlan": 2.0,
		},
		WallSeconds: 1.5, // volatile: must NOT reach the canonical body
	}
}

func testRecord(t *testing.T) *Record {
	t.Helper()
	rec, err := NewRecord(fakeKey(1), richResult())
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestRecordRoundTrip encodes with each supported codec and decodes the
// container back: key, digest, canonical bytes and decoded value must all
// survive, and repeated Encode calls on one record return the identical
// cached container.
func TestRecordRoundTrip(t *testing.T) {
	for _, codec := range []Codec{CodecRaw, CodecFlate} {
		rec := testRecord(t)
		enc, err := rec.Encode(codec)
		if err != nil {
			t.Fatalf("%v: Encode: %v", codec, err)
		}
		again, err := rec.Encode(codec)
		if err != nil || !bytes.Equal(enc, again) {
			t.Fatalf("%v: second Encode not the cached container", codec)
		}

		got, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("%v: DecodeRecord: %v", codec, err)
		}
		if got.Key() != rec.Key() || got.Digest() != rec.Digest() {
			t.Fatalf("%v: identity mangled: key %q digest %q", codec, got.Key(), got.Digest())
		}
		wantJSON, _ := rec.JSON()
		gotJSON, err := got.JSON()
		if err != nil || !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("%v: canonical bytes differ after round trip (err %v)", codec, err)
		}
		r, err := got.Result()
		if err != nil {
			t.Fatalf("%v: Result: %v", codec, err)
		}
		if r.EnergyJ != 12.345 || r.EnergyByIP["dsp"] != 2.345 || !r.Completed {
			t.Fatalf("%v: decoded result mangled: %+v", codec, r)
		}
		if r.WallSeconds != 0 {
			t.Fatalf("%v: volatile WallSeconds leaked into the canonical body", codec)
		}
		if ResultDigest(r) != rec.Digest() {
			t.Fatalf("%v: decoded result does not reproduce the stored digest", codec)
		}
	}
}

// TestRecordDeterministicBytes: two simulations of the same config differ
// only in host timing, and the record hides that — byte-identical
// containers, identical MemSize. Exact cache accounting rests on this.
func TestRecordDeterministicBytes(t *testing.T) {
	a, b := richResult(), richResult()
	b.WallSeconds = 99.75 // a slower host, same simulation
	ra, err := NewRecord(fakeKey(2), a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := NewRecord(fakeKey(2), b)
	if err != nil {
		t.Fatal(err)
	}
	ea, _ := ra.Encode(CodecFlate)
	eb, _ := rb.Encode(CodecFlate)
	if !bytes.Equal(ea, eb) {
		t.Fatal("containers differ across hosts with different wall times")
	}
	if ra.MemSize() != rb.MemSize() {
		t.Fatalf("MemSize differs: %d vs %d", ra.MemSize(), rb.MemSize())
	}
}

// TestRecordMemSize: the accounted size is derived from header fields
// only — the same before and after the lazy fields materialise.
func TestRecordMemSize(t *testing.T) {
	rec := testRecord(t)
	enc, err := rec.Encode(CodecFlate)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeRecord(enc)
	if err != nil {
		t.Fatal(err)
	}
	before := dec.MemSize()
	if _, err := dec.JSON(); err != nil { // inflate
		t.Fatal(err)
	}
	if _, err := dec.Result(); err != nil { // unmarshal
		t.Fatal(err)
	}
	if after := dec.MemSize(); after != before {
		t.Fatalf("MemSize moved %d → %d when lazy fields materialised", before, after)
	}
	raw, _ := rec.JSON()
	want := int64(recordOverhead + len(rec.Key()) + len(rec.Digest()) + len(raw))
	if got := rec.MemSize(); got != want {
		t.Fatalf("MemSize = %d, want overhead+key+digest+rawLen = %d", got, want)
	}
}

// TestRecordLazyDecode: decoding a container does NOT unmarshal the body;
// the Result materialises on first use and is then shared.
func TestRecordLazyDecode(t *testing.T) {
	enc, err := testRecord(t).Encode(CodecFlate)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeRecord(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.res.Load() != nil {
		t.Fatal("DecodeRecord eagerly unmarshalled the body")
	}
	r1, err := dec.Result()
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := dec.Result()
	if r1 != r2 {
		t.Fatal("Result() rebuilt the value instead of sharing it")
	}
}

// TestRecordCorruptionRejected flips, truncates and forges containers:
// every mutation must fail DecodeRecord — or, for body tampering caught
// by the checksum, fail before any JSON reaches a consumer.
func TestRecordCorruptionRejected(t *testing.T) {
	enc, err := testRecord(t).Encode(CodecFlate)
	if err != nil {
		t.Fatal(err)
	}

	mutate := func(name string, f func(b []byte) []byte) {
		b := f(append([]byte(nil), enc...))
		if _, err := DecodeRecord(b); err == nil {
			t.Errorf("%s: corrupt container decoded cleanly", name)
		}
	}
	mutate("bad magic", func(b []byte) []byte { b[0] = 'X'; return b })
	mutate("future version", func(b []byte) []byte { b[4] = recordVersion + 1; return b })
	mutate("unknown codec", func(b []byte) []byte { b[5] = 7; return b })
	mutate("flipped body byte", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b })
	mutate("flipped checksum byte", func(b []byte) []byte { b[20] ^= 0x01; return b })
	mutate("truncated body", func(b []byte) []byte { return b[:len(b)-3] })
	mutate("truncated header", func(b []byte) []byte { return b[:recordHdrLen-1] })
	mutate("empty", func(b []byte) []byte { return nil })
	mutate("oversized key length", func(b []byte) []byte {
		binary.LittleEndian.PutUint16(b[8:], maxRecordField+1)
		return b
	})
	mutate("body length past buffer", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[16:], uint32(len(b))) // > actual remainder
		return b
	})

	// Inflated-body mismatch: a body that checksums fine but inflates to
	// the wrong length (rawLen forged) must be rejected at JSON() time.
	forged := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint32(forged[12:], binary.LittleEndian.Uint32(forged[12:])+1)
	rec, err := DecodeRecord(forged)
	if err != nil {
		t.Fatalf("header-only forge rejected too early: %v", err)
	}
	if _, err := rec.JSON(); err == nil {
		t.Fatal("forged rawLen not caught at inflate time")
	}
}

// TestRecordOverlongRawLenRefused: inflating preallocates the header's
// raw length, so a flate container whose checksum and lengths check out
// but whose header claims 1 GiB from a small body must be refused by
// DecodeRecord itself — before anything can allocate that claim.
func TestRecordOverlongRawLenRefused(t *testing.T) {
	enc, err := testRecord(t).Encode(CodecFlate)
	if err != nil {
		t.Fatal(err)
	}
	forged := overlongRawLen(enc)
	if _, err := DecodeRecord(forged); err == nil {
		t.Fatal("flate container claiming 1 GiB raw from a small body decoded")
	}
	// The honest container sits well inside the bound.
	if _, err := DecodeRecord(enc); err != nil {
		t.Fatal(err)
	}
}

// overlongRawLen returns a copy of a flate container whose header claims
// 1 GiB of raw bytes. The checksum covers only the body, so it still
// verifies.
func overlongRawLen(enc []byte) []byte {
	forged := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint32(forged[12:16], 1<<30)
	return forged
}

// TestRecordFlateShrinksLedgerHeavyResults pins the headline compression
// claim on a realistic payload: a simulated result with its ledger and
// per-IP maps compresses well past 2x (observed ~5-10x on Table 1 runs).
func TestRecordFlateShrinksLedgerHeavyResults(t *testing.T) {
	cfg := soc.Config{
		IPs: []soc.IPSpec{{
			Name:     "ip0",
			Sequence: workload.HighActivity(7, 64).MustGenerate(),
		}},
		Policy:   soc.PolicyDPM,
		Battery:  soc.DefaultBattery(0.95),
		BusWords: 16,
		Horizon:  60 * sim.Sec,
	}
	r, err := soc.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	key, err := Fingerprint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewRecord(key, r)
	if err != nil {
		t.Fatal(err)
	}
	flated, err := rec.Encode(CodecFlate)
	if err != nil {
		t.Fatal(err)
	}
	if rec.rawLen < 1024 {
		t.Fatalf("payload too small to exercise compression: %d bytes", rec.rawLen)
	}
	if ratio := float64(rec.rawLen) / float64(len(flated)); ratio < 2 {
		t.Fatalf("flate ratio %.2fx on a ledger-heavy result, want ≥ 2x", ratio)
	}
}

// TestFlateCodersSurviveGC compresses and inflates a body, lets two GC
// cycles pass — which empty a sync.Pool — and does both again: the writer
// and reader must come from their free lists, not be built anew, and the
// compressed bytes must be those of a fresh writer, also when several
// goroutines share the lists. The writers' list keeps GOMAXPROCS of them.
func TestFlateCodersSurviveGC(t *testing.T) {
	raw, err := testRecord(t).JSON()
	if err != nil {
		t.Fatal(err)
	}
	var fresh bytes.Buffer
	w, err := flate.NewWriter(&fresh, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(raw); err != nil || w.Close() != nil {
		t.Fatal("fresh flate writer failed")
	}
	roundTrip := func() error {
		body, err := deflate(raw)
		if err != nil {
			return err
		}
		if !bytes.Equal(body, fresh.Bytes()) {
			return errors.New("a reused flate writer wrote other bytes than a fresh one")
		}
		if back, err := inflate(body, len(raw)); err != nil || !bytes.Equal(back, raw) {
			return fmt.Errorf("inflate: %v", err)
		}
		return nil
	}
	if err := roundTrip(); err != nil { // fills the free lists
		t.Fatal(err)
	}

	var built atomic.Int64
	buildWriter, buildReader := flateWriters.build, flateReaders.build
	flateWriters.build = func() *flate.Writer { built.Add(1); return buildWriter() }
	flateReaders.build = func() io.ReadCloser { built.Add(1); return buildReader() }
	defer func() { flateWriters.build, flateReaders.build = buildWriter, buildReader }()
	runtime.GC()
	runtime.GC()
	if err := roundTrip(); err != nil {
		t.Fatal(err)
	}
	if n := built.Load(); n != 0 {
		t.Fatalf("%d flate coders built after GC, want 0", n)
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if err := roundTrip(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	// GOMAXPROCS writers in use at once, and two more: after GC the list
	// still holds the GOMAXPROCS it keeps.
	n := cap(flateWriters.c)
	if n != runtime.GOMAXPROCS(0) {
		t.Fatalf("free list keeps %d writers, want GOMAXPROCS = %d", n, runtime.GOMAXPROCS(0))
	}
	held := make([]*flate.Writer, n+2)
	for i := range held {
		held[i] = flateWriters.get()
	}
	for _, w := range held {
		flateWriters.put(w)
	}
	runtime.GC()
	runtime.GC()
	built.Store(0)
	for i := range held[:n] {
		held[i] = flateWriters.get()
	}
	if b := built.Load(); b != 0 {
		t.Fatalf("%d of %d flate writers built after GC, want 0", b, n)
	}
	for _, w := range held[:n] {
		flateWriters.put(w)
	}
}
