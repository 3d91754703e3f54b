//go:build !race

package server

// raceEnabled reports whether the race detector is compiled in. The
// allocation pins consult it: sync.Pool drops puts under -race, so
// testing.AllocsPerRun reads high there.
const raceEnabled = false
