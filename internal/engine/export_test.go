package engine

import "godpm/internal/soc"

// Hooks for the external engine_test package, whose tests need the
// experiments and sweep catalogs (which import this package).

// JobKeys returns the job's cache key and fork-prefix key as a Run
// computes them.
func JobKeys(job Job) (key, prefix string, err error) {
	k := keysOf(job, true)
	return k.key, k.prefix, k.err
}

// ConfigEncoding returns the canonical encoding of a normalized config.
func ConfigEncoding(c *soc.Config) []byte {
	b, _ := appendConfig(nil, c)
	return b
}

var (
	RefConfigEncoding = refConfigBytes
	RefResultEncoding = refResultBytes
	RefFingerprint    = refFingerprint
	RefJobKey         = refJobKey
	RefForkPrefixKey  = refForkPrefixKey
)

// CountNormalizations routes key derivation through a counter until the
// returned restore func is called.
func CountNormalizations(count func()) (restore func()) {
	orig := normalizeConfig
	normalizeConfig = func(c soc.Config) (soc.Config, error) {
		count()
		return orig(c)
	}
	return func() { normalizeConfig = orig }
}
