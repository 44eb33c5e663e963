//go:build !race

package arena

// RaceEnabled reports whether the race detector is compiled in.
const RaceEnabled = false
