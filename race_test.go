//go:build race

package godpm_test

// sync.Pool drops entries at random under the race detector, so pooled
// buffers regrow and allocation budgets that rely on them do not hold.
func init() { raceEnabled = true }
