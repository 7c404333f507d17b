package journal

import (
	"bytes"
	"path/filepath"
	"testing"
)

// FuzzJournalReader feeds arbitrary bytes to the reader behind dpmserve
// -replay. Reading until io.EOF or the first error must never panic and
// must terminate; every record returned has an endpoint; records returned
// plus lines skipped never exceed the input's non-empty lines; and the
// records returned, appended by a Writer, read back equal. The committed
// corpus holds a header with records, a torn tail, a wrong-version
// header, a line just over the reader's 1 MiB limit and junk.
func FuzzJournalReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		lines := 0
		for _, l := range bytes.Split(data, []byte("\n")) {
			if len(bytes.TrimSpace(l)) > 0 {
				lines++
			}
		}
		r := NewReader(bytes.NewReader(data))
		var recs []Record
		for {
			rec, err := r.Next()
			if err != nil {
				break
			}
			if rec.Endpoint == "" {
				t.Fatalf("record without an endpoint: %+v", rec)
			}
			recs = append(recs, rec)
			if len(recs) > lines {
				t.Fatalf("read %d records from %d non-empty lines", len(recs), lines)
			}
		}
		if n := len(recs) + r.Skipped(); n > lines {
			t.Fatalf("%d records + %d skipped > %d non-empty lines", len(recs), r.Skipped(), lines)
		}
		if len(recs) == 0 {
			return
		}

		path := filepath.Join(t.TempDir(), "j.ndjson")
		w, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		back, skipped, err := ReadFile(path)
		if err != nil || skipped != 0 || len(back) != len(recs) {
			t.Fatalf("rewritten journal read back %d of %d records, %d skipped, err %v", len(back), len(recs), skipped, err)
		}
		for i := range recs {
			if back[i] != recs[i] {
				t.Fatalf("record %d read back as %+v, appended %+v", i, back[i], recs[i])
			}
		}
	})
}
