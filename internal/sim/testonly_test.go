package sim

// Name returns the diagnostic name given at creation.
func (e *Event) Name() string { return e.name }

// Name returns the process name.
func (pr *Proc) Name() string { return pr.p.name }

// Set writes v and returns whether that differs from the current value —
// convenience for conditional logging in models.
func (s *Signal[T]) Set(v T) bool {
	changed := v != s.cur
	s.Write(v)
	return changed
}

func (q *timedQueue) len() int { return len(q.entries) }
