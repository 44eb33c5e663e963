//go:build race

package arena

// RaceEnabled reports whether the race detector is compiled in. Tests
// asserting 0 allocs/op on sync.Pool-backed scratch paths skip under
// race: the detector makes Put randomly drop items to widen interleaving
// coverage, so pooled paths allocate by design there.
const RaceEnabled = true
