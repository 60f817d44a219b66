//go:build race

package web

// The race detector makes sync.Pool drop items at random and instruments
// allocations, so allocation counts mean nothing under it.
func init() { raceEnabled = true }
