//go:build !race

package doe

const raceEnabled = false
