package clara

import (
	"path/filepath"
	"testing"

	"clara/internal/benchguard"
)

// guardedBenchmarks maps baseline names to the benchmark functions the guard
// reruns. Adding a baseline entry without registering its function here is a
// test failure, not a silent skip.
var guardedBenchmarks = map[string]func(*testing.B){
	"BenchmarkPredict":          BenchmarkPredict,
	"BenchmarkPredictColocated": BenchmarkPredictColocated,
	"BenchmarkSimRun":           BenchmarkSimRun,
	"BenchmarkSimRunColocated":  BenchmarkSimRunColocated,
	"BenchmarkSimRunSharded":    BenchmarkSimRunSharded,
}

// TestBenchGuard fails when a guarded hot path regresses against the
// checked-in baselines in testdata/bench_baseline.json — Predict (the 19µs
// steady-state prediction loop) and SimRun (the low-allocation simulator
// packet loop) on both time and allocation axes. internal/nicsim carries a
// sibling guard for its cache and thread-heap micro-benchmarks; both run
// through internal/benchguard (see there for the BENCH_GUARD gate and the
// re-baseline discipline).
func TestBenchGuard(t *testing.T) {
	benchguard.Enforce(t, filepath.Join("testdata", "bench_baseline.json"), guardedBenchmarks)
}
