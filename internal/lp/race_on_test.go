//go:build race

package lp_test

// raceEnabled reports whether this test binary was built with the race
// detector, which changes allocation counts (sync.Pool drops entries at
// random under it).
const raceEnabled = true
