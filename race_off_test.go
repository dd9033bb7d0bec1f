//go:build !race

package pmjoin

// raceDetectorEnabled reports whether the test binary was built with -race.
const raceDetectorEnabled = false
