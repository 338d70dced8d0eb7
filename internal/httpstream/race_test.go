//go:build race

package httpstream

// raceEnabled reports a -race build. The race detector changes allocation
// counts (sync.Pool drops items at random), so allocation ceilings skip.
const raceEnabled = true
