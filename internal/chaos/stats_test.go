package chaos

// InjectorStats count what one injector did.
type InjectorStats struct {
	Ops        int64
	Delayed    int64
	Transients int64
	Permanents int64
	Corrupts   int64
	Torn       int64
	// Outage counts ops failed by the deterministic outage window
	// (included in Transients).
	Outage int64
}

// Stats reports what the filesystem seam's injector did.
func (f *FaultFS) Stats() InjectorStats { return f.inj.Stats() }

// Stats reports what the transport's injector did.
func (rt *RoundTripper) Stats() InjectorStats { return rt.inj.Stats() }

// Stats tallies the injector's decisions so far. A decision is a pure
// function of its op index, so replaying decide for every admitted op
// reproduces exactly what Next handed out.
func (in *Injector) Stats() InjectorStats {
	st := InjectorStats{Ops: in.ops.Load()}
	for k := 0; k < int(st.Ops); k++ {
		d := decide(in.seed, in.spec, k)
		switch d.Fault {
		case FaultTransient:
			st.Transients++
			if inOutage(in.spec, k) {
				st.Outage++
			}
		case FaultPermanent:
			st.Permanents++
		case FaultCorrupt:
			st.Corrupts++
		case FaultTorn:
			st.Torn++
		}
		if d.Latency > 0 {
			st.Delayed++
		}
	}
	return st
}
