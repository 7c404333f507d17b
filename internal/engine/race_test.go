//go:build race

package engine_test

// sync.Pool drops entries at random under the race detector, so pooled
// buffers regrow and allocation budgets do not hold there.
func init() { raceEnabled = true }
