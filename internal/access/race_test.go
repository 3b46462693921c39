//go:build race

package access_test

// The race detector's instrumentation makes allocations of its own — an
// append of a made slice, as in slices.Grow, is no longer elided — so
// tests pin allocated bytes only in builds without it.
func init() { raceEnabled = true }
