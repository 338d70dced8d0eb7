//go:build !race

package httpstream

const raceEnabled = false
