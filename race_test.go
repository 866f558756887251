//go:build race

package clara

// raceEnabled reports a race-detector build. The detector drops a share of
// sync.Pool puts on purpose, so pooled storage is reallocated and byte
// budgets measure the detector, not the code.
const raceEnabled = true
