//go:build race

package placement

// raceEnabled reports whether this test binary was built with the race
// detector, which slows every simulation roughly tenfold.
const raceEnabled = true
