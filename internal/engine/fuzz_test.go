package engine

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"godpm/internal/power"
	"godpm/internal/soc"
)

// FuzzCanonicalEncoding decodes arbitrary bytes into a soc.Config the way
// /v1/simulate decodes an inline config, then requires the appenders to
// reproduce the fmt reference byte for byte: on the raw decoded config
// (every value the decoder accepts, negative and extreme times included)
// and, when the config normalizes, on the fingerprint and fork-prefix key
// a Run derives from it. Neither path may panic.
func FuzzCanonicalEncoding(f *testing.F) {
	f.Add([]byte(`{"IPs":[{"Gen":{"Kind":"closed","Closed":{"Seed":3,"NumTasks":5,"MeanInstructions":100000}}}]}`))
	f.Add([]byte(`{"IPs":[{"Sequence":[{"Task":{"Instructions":1000},"IdleAfter":1000000}]}],"Horizon":5000000000000}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var cfg soc.Config
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&cfg) != nil {
			return
		}

		// The reference dereferences every IP's Profile; fill nil ones as
		// normalization would.
		raw := cfg
		raw.IPs = slices.Clone(cfg.IPs)
		for i := range raw.IPs {
			if raw.IPs[i].Profile == nil {
				raw.IPs[i].Profile = power.DefaultProfile()
			}
		}
		got, hz := appendConfig(nil, &raw)
		if want := refConfigBytes(&raw); !bytes.Equal(got, want) {
			t.Fatalf("raw encoding differs from the reference:\n got  %q\n want %q", got, want)
		}
		if h := string(got[hz.start:hz.end]); h != refHorizonField(&raw) {
			t.Fatalf("horizon span %q, reference %q", h, refHorizonField(&raw))
		}

		// Generators materialize NumTasks tasks during normalization;
		// bound them so one input cannot allocate without limit.
		for _, ip := range cfg.IPs {
			g := &ip.Gen
			if max(g.Closed.NumTasks, g.Burst.NumTasks, g.MMPP.NumTasks, g.Periodic.NumTasks, g.HeavyTail.NumTasks) > 64 {
				return
			}
		}
		k := keysOf(Job{Config: cfg}, true, materializeSpec)
		wantKey, wantErr := refFingerprint(cfg)
		if (k.err == nil) != (wantErr == nil) || k.key != wantKey {
			t.Fatalf("key %q (err %v), reference %q (err %v)", k.key, k.err, wantKey, wantErr)
		}
		if k.err != nil {
			return
		}
		if want, _ := refForkPrefixKey(cfg); k.prefix != want {
			t.Fatalf("prefix key %s, reference %s", k.prefix, want)
		}
	})
}
