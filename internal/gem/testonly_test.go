package gem

// Priority returns the static priority of the IP.
func (g *GEM) Priority(id int) int { return g.ips[id].priority }

// Requests returns how many task requests the IP forwarded.
func (g *GEM) Requests(id int) int { return g.ips[id].requests }
