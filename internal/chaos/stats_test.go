package chaos

// Stats reports what the filesystem seam's injector did.
func (f *FaultFS) Stats() InjectorStats { return f.inj.Stats() }

// Stats reports what the transport's injector did.
func (rt *RoundTripper) Stats() InjectorStats { return rt.inj.Stats() }

// Stats snapshots the injector's counters.
func (in *Injector) Stats() InjectorStats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}
