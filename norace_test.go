//go:build !race

package ptile360

const raceEnabled = false
