//go:build race

package plan

// The race detector's instrumentation makes allocations of its own, so
// tests pin absolute allocation counts only in builds without it.
func init() { raceEnabled = true }
