//go:build race

package warehouse

// raceEnabled reports whether the race detector is on. Under it the heap
// carries the detector's own bookkeeping, so heap sizes are not the
// program's.
const raceEnabled = true
