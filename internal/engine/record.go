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
// canonical encoded bytes of one soc.Result plus its lazily-decoded value.
// Building a Record encodes the result exactly once; after that, a cache
// hit — whether served from memory, disk, the remote store, or an HTTP
// response — is a copy of pre-encoded bytes, never a re-marshal, and the
// decoded Result is materialised at most once per record per process, only
// when a consumer actually asks for it.
//
// On disk and on the wire a record travels as a compact versioned binary
// container (see Encode): a fixed header carrying the fingerprint, the
// result's content digest and a checksum, followed by the body —
// canonical JSON, compressed per the header's codec. Records are immutable
// after construction (the lazy fields fill monotonically), so one record
// may safely back many concurrent jobs and HTTP responses.
type Record struct {
	key    string
	digest string
	rawLen int

	mu        sync.Mutex
	codec     Codec
	body      []byte // stored/wire body (compressed per codec); nil until first Encode of a fresh record
	raw       []byte // canonical JSON; nil until inflated for a decoded container
	container []byte // cached full container encoding (codec `codec`)

	res atomic.Pointer[soc.Result]
	aux atomic.Pointer[[]byte]
}

// Codec identifies a record body's compression. The byte values are part
// of the on-disk/wire format — never renumber them.
type Codec uint8

const (
	// CodecRaw stores the canonical JSON body uncompressed. No store
	// writes it, but existing stores may hold it, so DecodeRecord reads it.
	CodecRaw Codec = 0
	// CodecFlate compresses the body with DEFLATE (stdlib compress/flate).
	// Every store writes it: ledger-heavy result JSON shrinks 5-10x.
	CodecFlate Codec = 1
)

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
// a flipped wire bit — is caught at decode time without decompressing.
// The key and digest live in the header so a server can vouch a blob's
// identity and content digest without touching the body at all.
const (
	recordMagic    = "GDPM"
	recordVersion  = 1
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

// NewRecord builds a record from a freshly-computed result: the canonical
// JSON is written once, here, into a pooled buffer (see body.go) and
// copied out at its exact size, and the content digest is computed from
// the result's deterministic fields (see ResultDigest). Host timing
// (WallSeconds) is zeroed in the canonical body, mirroring the digest's
// exclusion of it: equal simulations produce byte-identical records, so
// record sizes — and the exact byte accounting built on them — are
// deterministic across runs, hosts and worker counts.
func NewRecord(key string, r *soc.Result) (*Record, error) {
	canon := *r
	canon.WallSeconds = 0
	buf := getBuf()
	defer putBuf(buf)
	b, err := appendResultJSON((*buf)[:0], &canon)
	*buf = b
	if err != nil {
		return nil, fmt.Errorf("engine: encode result: %w", err)
	}
	raw := make([]byte, len(b))
	copy(raw, b)
	rec := &Record{key: key, digest: ResultDigest(&canon), rawLen: len(raw), raw: raw}
	rec.res.Store(&canon)
	return rec, nil
}

// DecodeRecord parses a binary container. The header is validated
// (magic, version, lengths) and the body checksum is verified, so a
// decoded record's bytes are known-intact — but the body is NOT
// decompressed or decoded here; that happens lazily on the first
// JSON()/Result() call. Inflating preallocates the header's raw length, so
// a flate header claiming more than DEFLATE can expand its body to is
// refused here, before anything is allocated for it.
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

// Key returns the fingerprint the record was stored under ("" for records
// built before their key was known).
func (r *Record) Key() string { return r.key }

// Digest returns the result's content digest (see ResultDigest). For a
// decoded container it comes straight from the header — vouching a blob's
// digest costs no decode.
func (r *Record) Digest() string { return r.digest }

// MemSize is the record's in-memory accounting size: a deterministic
// function of the header fields (fixed overhead + key + digest + raw
// length), so a cache's byte accounting is exact by construction —
// accounted bytes always equal the sum of live records' MemSize — and
// independent of which lazy fields happen to be materialised.
func (r *Record) MemSize() int64 {
	return recordOverhead + int64(len(r.key)) + int64(len(r.digest)) + int64(r.rawLen)
}

// JSON returns the canonical JSON bytes, inflating the stored body on
// first call. The returned slice is shared — treat it as immutable.
func (r *Record) JSON() ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.jsonLocked()
}

func (r *Record) jsonLocked() ([]byte, error) {
	if r.raw != nil {
		return r.raw, nil
	}
	switch r.codec {
	case CodecFlate:
		raw, err := inflate(r.body, r.rawLen)
		if err != nil {
			return nil, fmt.Errorf("engine: record body: %w", err)
		}
		r.raw = raw
		return raw, nil
	default:
		return nil, fmt.Errorf("engine: record has no body (codec %s)", r.codec)
	}
}

// Result returns the decoded result, decoding the canonical JSON on first
// call (see bodydecode.go: a body laid out any other way is refused).
// Results handed out are shared — treat them as strictly immutable,
// exactly like Cache.Get's contract.
func (r *Record) Result() (*soc.Result, error) {
	if res := r.res.Load(); res != nil {
		return res, nil
	}
	raw, err := r.JSON()
	if err != nil {
		return nil, err
	}
	res, err := decodeResult(raw)
	if err != nil {
		return nil, err
	}
	// A concurrent decoder may have won; either pointer is the same value.
	r.res.CompareAndSwap(nil, res)
	return r.res.Load(), nil
}

// Encode returns the record's binary container for the codec, compressing
// the body on first use and caching the encoding (so a record stored to
// disk and replicated to a remote store with the same codec compresses
// once). The returned slice is shared — treat it as immutable.
func (r *Record) Encode(codec Codec) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.container != nil && r.codec == codec {
		return r.container, nil
	}
	raw, err := r.jsonLocked()
	if err != nil {
		return nil, err
	}
	var body []byte
	switch codec {
	case CodecRaw:
		body = raw
	case CodecFlate:
		if r.body != nil && r.codec == CodecFlate {
			body = r.body
		} else {
			body, err = deflate(raw)
			if err != nil {
				return nil, fmt.Errorf("engine: compress record: %w", err)
			}
		}
	default:
		return nil, fmt.Errorf("engine: encode record: unknown codec %s", codec)
	}
	out := make([]byte, recordHdrLen, recordHdrLen+len(r.key)+len(r.digest)+len(body))
	copy(out[0:4], recordMagic)
	out[4] = recordVersion
	out[5] = byte(codec)
	binary.LittleEndian.PutUint16(out[6:8], 0)
	binary.LittleEndian.PutUint16(out[8:10], uint16(len(r.key)))
	binary.LittleEndian.PutUint16(out[10:12], uint16(len(r.digest)))
	binary.LittleEndian.PutUint32(out[12:16], uint32(len(raw)))
	binary.LittleEndian.PutUint32(out[16:20], uint32(len(body)))
	sum := sha256.Sum256(body)
	copy(out[20:52], sum[:])
	out = append(out, r.key...)
	out = append(out, r.digest...)
	out = append(out, body...)
	r.codec, r.body, r.container = codec, body, out
	return out, nil
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
// window state, far too heavy to allocate per Put.
var (
	flateWriters = newFreeList(func() *flate.Writer {
		w, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
		return w
	})
	flateReaders = newFreeList(func() io.ReadCloser {
		return flate.NewReader(bytes.NewReader(nil))
	})
)

// deflate compresses raw with DEFLATE at BestSpeed — result JSON is
// highly redundant (repeated ledger field names), so even the fastest
// level lands the 5-10x shrink the format exists for.
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
