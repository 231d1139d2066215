//go:build !race

package lp_test

const raceEnabled = false
