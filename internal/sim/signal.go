package sim

import "fmt"

// Signal is a typed signal with SystemC evaluate/update semantics: a Write
// during the evaluation phase becomes visible only after the update phase,
// and sensitive processes run in the following delta cycle. The last Write
// within one evaluation phase wins.
type Signal[T comparable] struct {
	k       *Kernel
	name    string
	cur     T
	next    T
	hasNext bool
	changed *Event

	// onChange hooks fire inside the update phase (used by tracing).
	onChange []func(t Time, v T)
}

// NewSignal creates a signal initialised to init. Reading it before any
// write returns init.
func NewSignal[T comparable](k *Kernel, name string, init T) *Signal[T] {
	return &Signal[T]{k: k, name: name, cur: init, changed: k.NewEvent(name + ".changed")}
}

// Name returns the signal name.
func (s *Signal[T]) Name() string { return s.name }

// Read returns the current (post-update) value.
func (s *Signal[T]) Read() T { return s.cur }

// Write schedules v to become the signal value in the update phase of the
// current delta cycle. Writing the current value is a no-op for sensitivity
// (no change event fires) — and, with no update already pending, schedules
// nothing at all: applying it would compare-and-return, so skipping the
// queue round-trip is unobservable (same value, no change event, no delta)
// and keeps periodic re-writes of a steady value off the update phase.
func (s *Signal[T]) Write(v T) {
	if !s.hasNext {
		if v == s.cur {
			return
		}
		s.hasNext = true
		s.k.scheduleUpdate(s)
	}
	s.next = v
}

// Changed returns the event fired (as a delta notification) whenever the
// signal's value actually changes.
func (s *Signal[T]) Changed() *Event { return s.changed }

// OnChange registers a hook invoked during the update phase whenever the
// value changes. Hooks must not write signals.
func (s *Signal[T]) OnChange(h func(t Time, v T)) { s.onChange = append(s.onChange, h) }

func (s *Signal[T]) applyUpdate() {
	s.hasNext = false
	if s.next == s.cur {
		return
	}
	s.cur = s.next
	s.changed.NotifyDelta()
	for _, h := range s.onChange {
		h(s.k.now, s.cur)
	}
}

// String renders name=value for diagnostics.
func (s *Signal[T]) String() string { return fmt.Sprintf("%s=%v", s.name, s.cur) }
