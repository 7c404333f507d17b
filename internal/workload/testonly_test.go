package workload

// TotalInstructions sums the work across all arrivals.
func (s ArrivalSequence) TotalInstructions() int64 {
	var n int64
	for _, a := range s {
		n += a.Task.Instructions
	}
	return n
}

// MustGenerate is Generate that panics on error.
func (p BurstProfile) MustGenerate() Sequence {
	s, err := p.Generate()
	if err != nil {
		panic(err)
	}
	return s
}

// MustGenerate is Generate that panics on error.
func (p HeavyTailProfile) MustGenerate() Sequence {
	s, err := p.Generate()
	if err != nil {
		panic(err)
	}
	return s
}

// MustGenerate is Generate that panics on error.
func (p PeriodicProfile) MustGenerate() ArrivalSequence {
	s, err := p.Generate()
	if err != nil {
		panic(err)
	}
	return s
}
