package engine

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"

	"godpm/internal/soc"
)

// BlobServerOptions bounds the server side of the dpmremote protocol.
// The zero value selects the defaults.
type BlobServerOptions struct {
	// MaxBlobBytes caps a PUT body; default 32 MiB. Oversized uploads
	// are refused with 413 before touching the store.
	MaxBlobBytes int64
}

// maxStatKeys caps one batched stat request. Larger batches are refused
// with 400 — clients chunk.
const maxStatKeys = 4096

// BlobServerStats are the server's cumulative request counters plus the
// backing store's occupancy.
type BlobServerStats struct {
	Gets       int64 `json:"gets"`
	GetHits    int64 `json:"get_hits"`
	Heads      int64 `json:"heads"`
	HeadHits   int64 `json:"head_hits"`
	Puts       int64 `json:"puts"`
	PutRejects int64 `json:"put_rejects"`
	StatBatch  int64 `json:"stat_batches"`
	StatKeys   int64 `json:"stat_keys"`
	// Store is the backing store's occupancy: the entries and bytes of
	// its deepest local tier, and the evictions summed over its tiers.
	Store struct {
		Entries   int64 `json:"entries"`
		Bytes     int64 `json:"bytes"`
		Evictions int64 `json:"evictions"`
	} `json:"store"`
	// Tiers splits the store's counters per tier, fastest first.
	Tiers []TierStats `json:"tiers,omitempty"`
}

// BlobServer serves the dpmremote hash-addressed protocol over a result
// store (canonically one with a size-capped Disk tier, so admission is
// bounded twice: per-request body caps here, total occupancy by the
// disk tier's LRU GC):
//
//	HEAD /v1/blob/{fingerprint}
//	GET  /v1/blob/{fingerprint}
//	PUT  /v1/blob/{fingerprint}
//	POST /v1/stat
//
// Fingerprints are validated before they address the store, so request
// paths can never escape it. A GET answers with the stored binary record
// container — pre-encoded bytes, no per-GET marshal. A PUT body must be a
// record container keyed by the path that fully decodes as a result: an
// undecodable or digest-mismatched upload is refused with 422 rather than
// stored, so one misbehaving client cannot poison the fleet's shared
// entries.
//
// BlobServer is an http.Handler; liveness, stats surfacing and drain
// orchestration belong to the embedding command (see cmd/dpmremote).
type BlobServer struct {
	store   *Store
	maxBlob int64

	gets, getHits, heads, headHits atomic.Int64
	puts, putRejects               atomic.Int64
	statBatch, statKeys            atomic.Int64
}

// NewBlobServer builds the protocol handler over store.
func NewBlobServer(store Storage, opts BlobServerOptions) *BlobServer {
	if opts.MaxBlobBytes <= 0 {
		opts.MaxBlobBytes = maxBlobBytes
	}
	return &BlobServer{store: store.store(), maxBlob: opts.MaxBlobBytes}
}

// Stats snapshots the request counters and store occupancy.
func (s *BlobServer) Stats() BlobServerStats {
	st := BlobServerStats{
		Gets:       s.gets.Load(),
		GetHits:    s.getHits.Load(),
		Heads:      s.heads.Load(),
		HeadHits:   s.headHits.Load(),
		Puts:       s.puts.Load(),
		PutRejects: s.putRejects.Load(),
		StatBatch:  s.statBatch.Load(),
		StatKeys:   s.statKeys.Load(),
	}
	st.Tiers, st.Store.Entries, st.Store.Bytes, st.Store.Evictions = s.store.snapshot()
	return st
}

func (s *BlobServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case strings.HasPrefix(r.URL.Path, blobPathPrefix):
		key := r.URL.Path[len(blobPathPrefix):]
		if !validKey(key) {
			http.Error(w, "invalid fingerprint", http.StatusBadRequest)
			return
		}
		switch r.Method {
		case http.MethodHead:
			s.handleHead(w, key)
		case http.MethodGet:
			s.handleGet(w, key)
		case http.MethodPut:
			s.handlePut(w, r, key)
		default:
			http.Error(w, "HEAD, GET or PUT", http.StatusMethodNotAllowed)
		}
	case r.URL.Path == statPath:
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		s.handleStat(w, r)
	default:
		http.NotFound(w, r)
	}
}

func (s *BlobServer) handleHead(w http.ResponseWriter, key string) {
	s.heads.Add(1)
	if !s.store.Has(key) {
		w.WriteHeader(http.StatusNotFound)
		return
	}
	s.headHits.Add(1)
	w.WriteHeader(http.StatusOK)
}

func (s *BlobServer) handleGet(w http.ResponseWriter, key string) {
	s.gets.Add(1)
	rec, ok := s.store.Get(key)
	if !ok {
		http.Error(w, "not found", http.StatusNotFound)
		return
	}
	s.getHits.Add(1)
	// The stored container is the response — already compressed, already
	// checksummed, encoded at most once in this process's lifetime.
	data, err := rec.Encode(CodecFlate)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", RecordContentType)
	w.Header().Set("Content-Length", fmt.Sprint(len(data)))
	// The digest lets the client verify the body end-to-end: a flipped
	// byte in flight that still decodes cleanly is caught at the client
	// instead of promoted into its local tiers. It comes straight from
	// the record header — vouching costs no decode.
	w.Header().Set(digestHeader, rec.Digest())
	w.Write(data)
}

func (s *BlobServer) handlePut(w http.ResponseWriter, r *http.Request, key string) {
	s.puts.Add(1)
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBlob))
	if err != nil {
		s.putRejects.Add(1)
		http.Error(w, "body exceeds max blob size", http.StatusRequestEntityTooLarge)
		return
	}
	rec, decErr := DecodeRecord(data)
	if decErr == nil && rec.Key() != key {
		decErr = fmt.Errorf("record keyed %q", rec.Key())
	}
	var res *soc.Result
	if decErr == nil {
		// Decode all the way: a container whose header checks out but
		// whose body does not inflate and decode as a canonical body
		// (see bodydecode.go) must be refused, not stored for the fleet.
		res, decErr = rec.Result()
	}
	if decErr != nil {
		s.putRejects.Add(1)
		http.Error(w, "body is not a result record", http.StatusUnprocessableEntity)
		return
	}
	// Hold the decoded body to the digests claimed for it — the request
	// header's and the container's own: an upload corrupted in flight
	// (or carrying a lying header) is refused here instead of stored as
	// a poisoned entry the whole fleet would then share.
	claimed := r.Header.Get(digestHeader)
	if want := ResultDigest(res); (claimed != "" && want != claimed) || want != rec.Digest() {
		s.putRejects.Add(1)
		http.Error(w, "body does not match claimed digest", http.StatusUnprocessableEntity)
		return
	}
	// Only the container is served again: keep it, not the inflated body
	// and decoded result its verification built.
	if err := s.store.Put(key, rec.containerOnly()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *BlobServer) handleStat(w http.ResponseWriter, r *http.Request) {
	var req statRequest
	body := http.MaxBytesReader(w, r.Body, s.maxBlob)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		http.Error(w, "bad stat body", http.StatusBadRequest)
		return
	}
	if len(req.Keys) > maxStatKeys {
		http.Error(w, fmt.Sprintf("too many keys (max %d per batch)", maxStatKeys), http.StatusBadRequest)
		return
	}
	s.statBatch.Add(1)
	s.statKeys.Add(int64(len(req.Keys)))
	resp := statResponse{Present: make([]string, 0, len(req.Keys))}
	for _, k := range req.Keys {
		if validKey(k) && s.store.Has(k) {
			resp.Present = append(resp.Present, k)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}
