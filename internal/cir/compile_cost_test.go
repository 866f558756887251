package cir_test

import (
	"testing"

	"clara/internal/cir"
	"clara/internal/nf"
)

// TestCompileAllocs pins Compile's allocation cost on every corpus NF: a
// constant handful (the engine, its block table, the record slab, the
// register and scratch buffers), independent of instruction count. The
// predictor and the behaviour enumerator compile once per call, so a
// per-instruction allocation here would show up on every prediction.
func TestCompileAllocs(t *testing.T) {
	const maxAllocs = 8
	for _, name := range nf.Names() {
		prog := nf.All()[name].MustCompile()
		n := testing.AllocsPerRun(20, func() {
			if _, err := cir.Compile(prog); err != nil {
				t.Fatal(err)
			}
		})
		if n > maxAllocs {
			t.Errorf("%s: Compile allocates %.0f times, want <= %d", name, n, maxAllocs)
		}
	}
}

// TestVerifyAllocs bounds Verify's allocations on every corpus NF. Verify
// runs in every simulator build, front-end lowering and graph build, so a
// valid program must not pay for error locations it never reports.
func TestVerifyAllocs(t *testing.T) {
	const maxAllocs = 8
	for _, name := range nf.Names() {
		prog := nf.All()[name].MustCompile()
		n := testing.AllocsPerRun(20, func() {
			if err := cir.Verify(prog); err != nil {
				t.Fatal(err)
			}
		})
		if n > maxAllocs {
			t.Errorf("%s: Verify allocates %.0f times, want <= %d", name, n, maxAllocs)
		}
	}
}

// TestMeterParityCorpus runs the meter differential (CheckMeterParity) over
// every corpus NF: the interpreter and the compiled engine book the same
// instruction prices, in the same order, around every vcall.
func TestMeterParityCorpus(t *testing.T) {
	for _, name := range nf.Names() {
		cir.CheckMeterParity(t, nf.All()[name].MustCompile(), 200_000)
	}
}
