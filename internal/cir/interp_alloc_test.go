package cir

import (
	"context"
	"testing"
)

// buildCountedLoop builds a loop that actually terminates, counting 0..9
// through a scratch slot (cir_test.go's buildLoop never advances its
// condition register — by design, for step-limit tests — so it cannot run to
// completion).
func buildCountedLoop(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("counted")
	off := b.AllocScratch(8)
	addr := b.Const(uint64(off))
	zero := b.Const(0)
	b.Store(addr, zero, 8)
	head := b.NewBlock("head")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Jump(head)

	b.SetBlock(head)
	i := b.Load(addr, 8)
	ten := b.Const(10)
	cond := b.Bin(OpLt, i, ten)
	b.Branch(cond, body, exit)

	b.SetBlock(body)
	cur := b.Load(addr, 8)
	one := b.Const(1)
	next := b.Bin(OpAdd, cur, one)
	b.Store(addr, next, 8)
	b.Jump(head)

	b.SetBlock(exit)
	b.ReturnConst(VerdictPass)
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestInterpRunDoesNotAllocate pins the interpreter's allocation contract: a
// Run on a prepared Interp performs zero heap allocations of its own, on the
// hook-free fast path and on the hooked path alike (the stub env here is
// allocation-free, so anything measured comes from the interpreter).
func TestInterpRunDoesNotAllocate(t *testing.T) {
	for _, prog := range []*Program{buildLinear(t), buildBranchy(t), buildCountedLoop(t)} {
		it := NewInterp(prog)
		env := &stubEnv{ret: map[VCall]uint64{VCGetHdr: 1}}
		run := func(h *Hooks) {
			env.calls = env.calls[:0]
			if _, err := it.Run(env, h); err != nil {
				t.Fatal(err)
			}
		}
		// Warm once so stubEnv's calls slice reaches capacity.
		run(nil)

		if n := testing.AllocsPerRun(50, func() { run(nil) }); n > 0 {
			t.Errorf("%s: fast path allocates %.1f per Run, want 0", prog.Name, n)
		}
		var clock, compute float64
		var steps int64
		meter := &Meter{Prices: &testPrices, Clock: &clock, Compute: &compute, Steps: &steps}
		hooks := &Hooks{Meter: meter, MaxSteps: 10_000, Ctx: context.Background()}
		if n := testing.AllocsPerRun(50, func() { run(hooks) }); n > 0 {
			t.Errorf("%s: hooked path allocates %.1f per Run, want 0", prog.Name, n)
		}
	}
}

// TestInterpFastPathMatchesHooked checks the specialized hook-free loop
// against the hooked loop: same verdicts, same vcall sequence with the same
// evaluated arguments, and the same step accounting (a MaxSteps that trips
// one must trip the other).
func TestInterpFastPathMatchesHooked(t *testing.T) {
	for _, prog := range []*Program{buildLinear(t), buildBranchy(t), buildCountedLoop(t)} {
		fastEnv := &recordingEnv{}
		fastV, fastErr := NewInterp(prog).Run(fastEnv, nil)

		hookedEnv := &recordingEnv{}
		var instrs int64
		hookedV, hookedErr := NewInterp(prog).Run(hookedEnv, &Hooks{
			Meter: &Meter{Steps: &instrs},
		})
		if fastErr != nil || hookedErr != nil {
			t.Fatalf("%s: fast err %v, hooked err %v", prog.Name, fastErr, hookedErr)
		}
		if fastV != hookedV {
			t.Errorf("%s: verdict %d on fast path, %d hooked", prog.Name, fastV, hookedV)
		}
		if len(fastEnv.calls) != len(hookedEnv.calls) {
			t.Fatalf("%s: %d vcalls fast, %d hooked", prog.Name, len(fastEnv.calls), len(hookedEnv.calls))
		}
		for i := range fastEnv.calls {
			if fastEnv.calls[i] != hookedEnv.calls[i] {
				t.Errorf("%s: vcall %d = %q fast, %q hooked", prog.Name, i, fastEnv.calls[i], hookedEnv.calls[i])
			}
		}

		// Step parity: find the exact budget at which the hooked loop trips
		// and require the fast loop to trip there too, and to pass one above.
		for budget := 1; budget < 10_000; budget++ {
			_, hErr := NewInterp(prog).Run(&recordingEnv{}, &Hooks{MaxSteps: budget, OnBlock: func(int) {}})
			_, fErr := NewInterp(prog).Run(&recordingEnv{}, &Hooks{MaxSteps: budget})
			if (hErr == nil) != (fErr == nil) {
				t.Fatalf("%s: at MaxSteps=%d hooked err %v, fast err %v", prog.Name, budget, hErr, fErr)
			}
			if hErr == nil {
				break
			}
		}
	}
}
