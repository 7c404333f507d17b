package lem

import (
	"fmt"

	"godpm/internal/acpi"
)

// PSM returns the controlled power state machine.
func (l *LEM) PSM() *acpi.PSM { return l.psm }

// Predictor returns the configured idle predictor.
func (l *LEM) Predictor() Predictor { return l.cfg.Predictor }

// Name identifies the predictor in test failures.
func (p *Adaptive) Name() string {
	return fmt.Sprintf("adaptive(%.2f/%.2f)", p.fast.Alpha, p.slow.Alpha)
}

// Name identifies the predictor in test failures.
func (p *LastValue) Name() string { return "last-value" }

// Name identifies the predictor in test failures.
func (Perfect) Name() string { return "perfect" }
