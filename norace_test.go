//go:build !race

package clara

const raceEnabled = false
