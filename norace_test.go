//go:build !race

package gallium_test

// raceEnabled reports a build with the race detector.
const raceEnabled = false
