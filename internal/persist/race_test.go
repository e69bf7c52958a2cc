//go:build race

package persist

// raceEnabled reports whether the race detector is on. Under it sync.Pool
// drops a share of what it is given at random, so pooled scratch is
// reallocated now and then and allocation counts are not exact.
const raceEnabled = true
