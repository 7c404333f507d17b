package engine

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"godpm/internal/soc"
)

// Record is the unit every cache tier stores and every server serves: the
// encoded bytes of one soc.Result plus its lazily-decoded value. Building
// a Record encodes the result exactly once; after that, a cache hit —
// whether served from memory, disk, the remote store, or an HTTP response
// — is a copy of pre-encoded bytes, never a re-encode, and the decoded
// Result is materialised at most once per record per process, only when
// a consumer actually asks for it.
//
// On disk and on the wire a record travels as a compact versioned binary
// container (see Encode): a fixed header carrying the fingerprint, the
// result's content digest and a checksum, followed by the body — the
// Result's binary encoding (see recordbody.go), stored per the header's
// codec. Records are immutable after construction (the lazy fields fill
// monotonically), so one record may safely back many concurrent jobs and
// HTTP responses.
type Record struct {
	key    string
	digest string
	rawLen int

	mu        sync.Mutex
	codec     Codec
	body      []byte // stored body (compressed per codec), within container
	raw       []byte // binary body; nil until inflated for a flate container
	container []byte // full container encoding (codec `codec`)

	res atomic.Pointer[soc.Result]
	aux atomic.Pointer[[]byte]
}

// Codec identifies a record body's compression. The byte values are part
// of the on-disk/wire format — never renumber them.
type Codec uint8

const (
	// CodecRaw stores the binary body uncompressed. Every store writes
	// it (storeCodec).
	CodecRaw Codec = 0
	// CodecFlate compresses the body with DEFLATE (stdlib compress/flate).
	// No store writes it; Encode and DecodeRecord still handle it, and the
	// benchmark's record rows time it.
	CodecFlate Codec = 1
)

// storeCodec is the codec every store writes and serves: the binary body
// is compact already, so a hit reads it in place, with no inflate, and a
// miss's write-behind does no deflate.
const storeCodec = CodecRaw

func (c Codec) String() string {
	switch c {
	case CodecRaw:
		return "none"
	case CodecFlate:
		return "flate"
	}
	return fmt.Sprintf("codec(%d)", uint8(c))
}

// The binary container layout, little-endian:
//
//	offset  size  field
//	     0     4  magic "GDPM"
//	     4     1  format version (recordVersion)
//	     5     1  codec
//	     6     2  flags (reserved, 0)
//	     8     2  key length
//	    10     2  digest length
//	    12     4  raw (uncompressed body) length
//	    16     4  body length
//	    20    32  SHA-256 of the body bytes as stored
//	    52     …  key | digest | body
//
// The checksum covers the stored body, so corruption — a torn disk write,
// a flipped wire bit — is caught at decode time without reading the body.
// The key and digest live in the header so a server can vouch a blob's
// identity and content digest without touching the body at all. Version
// 1 bodies were canonical JSON; version 2 bodies are binary, and a
// version 1 container is refused like any other unsupported one.
const (
	recordMagic    = "GDPM"
	recordVersion  = 2
	recordHdrLen   = 52
	maxRecordField = 1 << 10 // sanity bound on key/digest lengths
	maxRecordBody  = 1 << 30 // sanity bound on raw/body lengths
	// maxDeflateRatio is DEFLATE's largest expansion: a 258-byte match
	// codes in as few as two bits, so no stream inflates past 1032 bytes
	// per input byte. A flate header claiming more raw bytes is forged.
	maxDeflateRatio = 1032

	// recordOverhead is the fixed per-record share of MemSize: the struct,
	// its entry bookkeeping in a cache, and slack for the lazy fields.
	recordOverhead = 512
)

// RecordContentType is the HTTP media type of an encoded record container,
// the body of every dpmremote blob GET and PUT.
const RecordContentType = "application/x-gdpm-record"

// NewRecord builds a record from a freshly-computed result: the body is
// written once, here, into a pooled buffer and copied into the record's
// container, which every store then writes as is, and the content digest
// is computed from the result's deterministic fields (see ResultDigest).
// Host timing (WallSeconds) is zeroed in the body, mirroring the digest's
// exclusion of it: equal simulations produce byte-identical records, so
// record sizes — and the exact byte accounting built on them — are
// deterministic across runs, hosts and worker counts.
func NewRecord(key string, r *soc.Result) (*Record, error) {
	canon := *r
	canon.WallSeconds = 0
	buf := getBuf()
	defer putBuf(buf)
	b, err := appendBody((*buf)[:0], &canon)
	*buf = b
	if err != nil {
		return nil, fmt.Errorf("engine: encode result: %w", err)
	}
	rec := &Record{key: key, digest: ResultDigest(&canon), rawLen: len(b)}
	rec.setContainer(storeCodec, b)
	rec.raw = rec.body
	rec.res.Store(&canon)
	return rec, nil
}

// DecodeRecord parses a binary container. The header is validated
// (magic, version, lengths) and the body checksum is verified, so a
// decoded record's bytes are known-intact — but the body is NOT decoded
// here; that happens lazily on the first Result() call. Inflating a flate
// body preallocates the header's raw length, so a flate header claiming
// more than DEFLATE can expand its body to is refused here, before
// anything is allocated for it. The record keeps data as its container:
// the caller must not modify it afterwards.
func DecodeRecord(data []byte) (*Record, error) {
	if len(data) < recordHdrLen || string(data[:4]) != recordMagic {
		return nil, fmt.Errorf("engine: not a record container")
	}
	if v := data[4]; v != recordVersion {
		return nil, fmt.Errorf("engine: record version %d not supported (want %d)", v, recordVersion)
	}
	codec := Codec(data[5])
	if codec != CodecRaw && codec != CodecFlate {
		return nil, fmt.Errorf("engine: record: unknown codec %d", codec)
	}
	keyLen := int(binary.LittleEndian.Uint16(data[8:10]))
	digestLen := int(binary.LittleEndian.Uint16(data[10:12]))
	rawLen := int(binary.LittleEndian.Uint32(data[12:16]))
	bodyLen := int(binary.LittleEndian.Uint32(data[16:20]))
	if keyLen > maxRecordField || digestLen > maxRecordField ||
		rawLen > maxRecordBody || bodyLen > maxRecordBody {
		return nil, fmt.Errorf("engine: record header lengths out of range")
	}
	if len(data) != recordHdrLen+keyLen+digestLen+bodyLen {
		return nil, fmt.Errorf("engine: record length %d does not match header (want %d)",
			len(data), recordHdrLen+keyLen+digestLen+bodyLen)
	}
	var sum [32]byte
	copy(sum[:], data[20:52])
	key := string(data[recordHdrLen : recordHdrLen+keyLen])
	digest := string(data[recordHdrLen+keyLen : recordHdrLen+keyLen+digestLen])
	body := data[recordHdrLen+keyLen+digestLen:]
	if sha256.Sum256(body) != sum {
		return nil, fmt.Errorf("engine: record body checksum mismatch")
	}
	rec := &Record{key: key, digest: digest, rawLen: rawLen, codec: codec, body: body, container: data}
	switch {
	case codec == CodecRaw:
		if len(body) != rawLen {
			return nil, fmt.Errorf("engine: raw record body length %d != header raw length %d", len(body), rawLen)
		}
		rec.raw = body
	case rawLen > maxDeflateRatio*len(body):
		return nil, fmt.Errorf("engine: flate record claims %d raw bytes from a %d-byte body", rawLen, len(body))
	}
	return rec, nil
}

// containerOnly returns a record of r's container alone, sharing its
// bytes: no inflated body, no decoded result. r must be a decoded
// container, whose checksum DecodeRecord has already verified, read into
// a buffer of its own size.
func (r *Record) containerOnly() *Record {
	c := &Record{key: r.key, digest: r.digest, rawLen: r.rawLen, codec: r.codec, body: r.body, container: r.container}
	if c.codec == CodecRaw {
		c.raw = c.body
	}
	return c
}

// Key returns the fingerprint the record was stored under ("" for records
// built before their key was known).
func (r *Record) Key() string { return r.key }

// Digest returns the result's content digest (see ResultDigest). For a
// decoded container it comes straight from the header — vouching a blob's
// digest costs no decode.
func (r *Record) Digest() string { return r.digest }

// MemSize is the record's in-memory accounting size: a deterministic
// function of the header fields (fixed overhead + key + digest + binary
// body length), so a cache's byte accounting is exact by construction —
// accounted bytes always equal the sum of live records' MemSize — and
// independent of which lazy fields happen to be materialised.
func (r *Record) MemSize() int64 {
	return recordOverhead + int64(len(r.key)) + int64(len(r.digest)) + int64(r.rawLen)
}

// rawLocked returns the binary body, inflating a flate body on first use.
func (r *Record) rawLocked() ([]byte, error) {
	if r.raw == nil {
		raw, err := inflate(r.body, r.rawLen)
		if err != nil {
			return nil, fmt.Errorf("engine: record body: %w", err)
		}
		r.raw = raw
	}
	return r.raw, nil
}

// Result returns the decoded result, decoding the body on first call
// (see recordbody.go: a body laid out any other way than appendBody
// writes is refused). Results handed out are shared — treat them as
// strictly immutable, exactly like Cache.Get's contract.
func (r *Record) Result() (*soc.Result, error) {
	if res := r.res.Load(); res != nil {
		return res, nil
	}
	r.mu.Lock()
	raw, err := r.rawLocked()
	r.mu.Unlock()
	if err != nil {
		return nil, err
	}
	res, err := decodeBody(raw)
	if err != nil {
		return nil, err
	}
	// A concurrent decoder may have won; either pointer is the same value.
	r.res.CompareAndSwap(nil, res)
	return r.res.Load(), nil
}

// Encode returns the record's binary container for the codec, building
// it on first use and caching it. A record holds the container for
// storeCodec from the start, so every store's Encode returns it as is.
// The returned slice is shared — treat it as immutable.
func (r *Record) Encode(codec Codec) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.container != nil && r.codec == codec {
		return r.container, nil
	}
	raw, err := r.rawLocked()
	if err != nil {
		return nil, err
	}
	body := raw
	switch codec {
	case CodecRaw:
	case CodecFlate:
		if body, err = deflate(raw); err != nil {
			return nil, fmt.Errorf("engine: compress record: %w", err)
		}
	default:
		return nil, fmt.Errorf("engine: encode record: unknown codec %s", codec)
	}
	r.setContainer(codec, body)
	return r.container, nil
}

// setContainer builds r's container for a body stored with codec,
// copying the body into it.
func (r *Record) setContainer(codec Codec, body []byte) {
	out := make([]byte, recordHdrLen, recordHdrLen+len(r.key)+len(r.digest)+len(body))
	copy(out[0:4], recordMagic)
	out[4] = recordVersion
	out[5] = byte(codec)
	binary.LittleEndian.PutUint16(out[6:8], 0)
	binary.LittleEndian.PutUint16(out[8:10], uint16(len(r.key)))
	binary.LittleEndian.PutUint16(out[10:12], uint16(len(r.digest)))
	binary.LittleEndian.PutUint32(out[12:16], uint32(r.rawLen))
	binary.LittleEndian.PutUint32(out[16:20], uint32(len(body)))
	sum := sha256.Sum256(body)
	copy(out[20:52], sum[:])
	out = append(out, r.key...)
	out = append(out, r.digest...)
	out = append(out, body...)
	r.codec, r.body, r.container = codec, out[len(out)-len(body):], out
}

// Aux returns the serving-layer artifact attached with SetAux (nil if
// none). It lets a server cache one derived encoding — e.g. dpmserve's
// pre-encoded response fragment — on the record itself, so the artifact
// is computed once per record and evicted with it.
func (r *Record) Aux() []byte {
	if p := r.aux.Load(); p != nil {
		return *p
	}
	return nil
}

// SetAux attaches a serving-layer artifact (see Aux). Last write wins;
// the artifact must be derived from the record alone so racing writers
// are interchangeable.
func (r *Record) SetAux(b []byte) { r.aux.Store(&b) }

// freeList reuses values across GC cycles: it keeps up to cap(c) idle
// values, which a quiet server, whose GC runs between puts, still finds.
// A value returned when c is full goes to pool, which keeps it per P
// until the next GC, as a plain sync.Pool would; a get that finds
// neither builds a new one.
type freeList[T any] struct {
	c     chan T
	pool  sync.Pool
	build func() T
}

// newFreeList keeps GOMAXPROCS values across GC, one for each of the
// engine's default workers (NumCPU) coding at once.
func newFreeList[T any](build func() T) *freeList[T] {
	return &freeList[T]{c: make(chan T, runtime.GOMAXPROCS(0)), build: build}
}

func (l *freeList[T]) get() T {
	select {
	case v := <-l.c:
		return v
	default:
	}
	if v, ok := l.pool.Get().(T); ok {
		return v
	}
	return l.build()
}

func (l *freeList[T]) put(v T) {
	select {
	case l.c <- v:
	default:
		l.pool.Put(v)
	}
}

// Flate writers and readers are reused: a flate.Writer is ~700 KiB of
// window state, far too heavy to allocate per Encode.
var (
	flateWriters = newFreeList(func() *flate.Writer {
		w, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
		return w
	})
	flateReaders = newFreeList(func() io.ReadCloser {
		return flate.NewReader(bytes.NewReader(nil))
	})
)

// deflate compresses raw with DEFLATE at BestSpeed.
func deflate(raw []byte) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(len(raw)/4 + 64)
	w := flateWriters.get()
	defer flateWriters.put(w)
	w.Reset(&buf)
	if _, err := w.Write(raw); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// inflate decompresses a DEFLATE body, requiring the exact raw length the
// header promised — a short or long stream is corruption.
func inflate(body []byte, rawLen int) ([]byte, error) {
	fr := flateReaders.get()
	defer flateReaders.put(fr)
	if err := fr.(flate.Resetter).Reset(bytes.NewReader(body), nil); err != nil {
		return nil, err
	}
	raw := make([]byte, rawLen)
	if _, err := io.ReadFull(fr, raw); err != nil {
		return nil, fmt.Errorf("inflate: %w", err)
	}
	// The stream must end exactly here.
	var extra [1]byte
	if n, _ := fr.Read(extra[:]); n != 0 {
		return nil, fmt.Errorf("inflate: body longer than header's raw length %d", rawLen)
	}
	return raw, nil
}
