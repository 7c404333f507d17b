package engine

import (
	"bytes"
	"testing"
)

// FuzzDecodeRecord feeds arbitrary bytes to the decoder every cache tier
// and blob PUT trusts. It must never panic; a container it accepts must
// be of the current version and re-encode with its own codec to exactly
// the input bytes; and decoding the accepted container's body must never
// panic either. The committed corpus holds a raw and a flate container, a
// truncated one, one with a flipped checksum, one whose header claims
// 1 GiB of raw bytes, and a version 1 container, which must be refused.
func FuzzDecodeRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeRecord(data)
		if err != nil {
			return
		}
		if data[4] != recordVersion {
			t.Fatalf("accepted a version %d container", data[4])
		}
		enc, err := rec.Encode(Codec(data[5]))
		if err != nil {
			t.Fatalf("accepted container does not re-encode: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("re-encoding changed the container:\n got  %x\n want %x", enc, data)
		}
		rec.Result() // a corrupt body is an error, never a panic
	})
}
