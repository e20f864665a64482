//go:build race

package core

// raceEnabled reports a race-detector build, whose runtime allocates
// on its own and so makes allocation counts noisy.
const raceEnabled = true
