//go:build race

package doe

// raceEnabled reports whether the race detector is compiled in; the
// single-goroutine reference comparisons shrink under it (instrumentation
// slows their arithmetic by an order of magnitude and finds nothing there).
const raceEnabled = true
