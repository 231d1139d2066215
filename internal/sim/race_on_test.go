//go:build race

package sim

// raceEnabled reports whether this test binary was built with the race
// detector, which changes allocation counts (sync.Pool drops entries at
// random under it).
const raceEnabled = true
