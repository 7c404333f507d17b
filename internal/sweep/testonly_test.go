package sweep

import (
	"context"

	"godpm/internal/engine"
)

// Run executes the sweep on a default batch engine (one worker per CPU,
// fresh in-memory cache). Results are identical to a serial run: points
// come back in Values order and every simulation is deterministic.
func (s Sweep) Run() ([]Point, error) {
	return s.RunWith(context.Background(), engine.New(engine.Options{}))
}
