//go:build race

package pmjoin

// raceDetectorEnabled reports whether the test binary was built with -race.
// Race instrumentation slows the matrix build about fifteenfold, its node
// tables included, which run before the first sweep and read no context, so
// wall-clock bounds on a cancel scale with it.
const raceDetectorEnabled = true
