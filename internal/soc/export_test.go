package soc

import "context"

// RunCountingSamples runs cfg to its horizon like RunWith and also returns
// how many samples the kernel's idle fast-forward handed the accountant.
func RunCountingSamples(cfg Config) (*Result, uint64, error) {
	s, err := newSession(context.Background(), cfg, RunOptions{})
	if err != nil {
		return nil, 0, err
	}
	if err := s.advance(context.Background(), s.cfg.Horizon); err != nil {
		return nil, 0, err
	}
	return s.finish(s.acct.stopReason), s.k.FastForwardedInstants(), nil
}
