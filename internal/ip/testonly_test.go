package ip

// Name returns the IP name.
func (b *IP) Name() string { return b.cfg.Name }
