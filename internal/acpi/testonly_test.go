package acpi

import (
	"godpm/internal/sim"
)

// Done fires (delta-notified) when a requested transition completes,
// including the degenerate request to the current state.
func (p *PSM) Done() *sim.Event { return p.done }

// Name returns the PSM name.
func (p *PSM) Name() string { return p.name }
