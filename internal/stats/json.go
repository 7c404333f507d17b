package stats

import "encoding/json"

// MarshalJSON serialises the ledger as its record array, so results that
// embed a Ledger (soc.Result) survive a JSON round trip. The engine's
// cache records call neither method: their body appenders write the same
// bytes and their body decoder reads them back, and encoding/json through
// these methods is the reference their tests compare against. They serve
// every other JSON user of a Result.
func (l Ledger) MarshalJSON() ([]byte, error) {
	if l.records == nil {
		return []byte("[]"), nil
	}
	return json.Marshal(l.records)
}

// UnmarshalJSON restores a ledger serialised by MarshalJSON.
func (l *Ledger) UnmarshalJSON(b []byte) error {
	l.records = nil
	return json.Unmarshal(b, &l.records)
}
