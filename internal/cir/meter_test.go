package cir

import (
	"context"
	"math"
	"testing"
)

// testPrices is an uneven, inexact price vector: every opcode a different
// fraction of a cycle, so a price added to the wrong counter, twice, out of
// order or for the wrong opcode changes some bit of the clock. OpVCall is
// zero, as in every vector lnic.InstrPrices builds.
var testPrices = func() Prices {
	var p Prices
	for op := range p {
		p[op] = 0.1*float64(op%11+1) + 1.0/float64(op+3)
	}
	p[OpVCall] = 0
	return p
}()

// meterMark is the meter as one vcall found it: clock and compute as bit
// patterns, and the instruction count.
type meterMark struct {
	clock, compute uint64
	steps          int64
}

// meterEnv owns a meter and records it at every vcall, then charges the
// vcall to its clock and compute share the way the simulator's Env does, so
// the instructions after a vcall are priced on a clock the Env moved. Its
// values and vcall trace come from recordingEnv.
type meterEnv struct {
	recordingEnv
	clock, compute float64
	steps          int64
	marks          []meterMark
}

func (e *meterEnv) VCall(in *Instr, args []uint64) (uint64, error) {
	e.marks = append(e.marks, e.mark())
	e.clock += 1.25 + float64(len(args))/3
	e.compute += 0.3
	return e.recordingEnv.VCall(in, args)
}

func (e *meterEnv) mark() meterMark {
	return meterMark{math.Float64bits(e.clock), math.Float64bits(e.compute), e.steps}
}

func (e *meterEnv) meter() *Meter {
	return &Meter{Prices: &testPrices, Clock: &e.clock, Compute: &e.compute, Steps: &e.steps}
}

// meterShapes are the hook sets the meter differential runs under: the
// simulator's (meter and context), the predictor's (meter alone) and the
// behaviour enumerator's (meter, block hook and context). Each is a
// distinct hook-nil pattern through both engines' loops.
var meterShapes = []struct {
	name       string
	block, ctx bool
}{
	{name: "meter+ctx", ctx: true},
	{name: "meter"},
	{name: "meter+block+ctx", block: true, ctx: true},
}

// blockMark is a block entry and the meter as it found it.
type blockMark struct {
	block int
	meter meterMark
}

// meterOutcome is what one metered run shows: verdict, error text, the
// vcall trace, the meter at every vcall and at the end, and the meter at
// every block entry.
type meterOutcome struct {
	v       uint64
	errText string
	calls   []string
	marks   []meterMark
	blocks  []blockMark
}

func meterRun(run func(Env, *Hooks) (uint64, error), maxSteps int, block, ctx bool) meterOutcome {
	env := &meterEnv{}
	var o meterOutcome
	h := &Hooks{Meter: env.meter(), MaxSteps: maxSteps}
	if block {
		h.OnBlock = func(b int) { o.blocks = append(o.blocks, blockMark{b, env.mark()}) }
	}
	if ctx {
		h.Ctx = context.Background()
	}
	v, err := run(env, h)
	o.v = v
	if err != nil {
		o.errText = err.Error()
	}
	o.calls = env.calls
	o.marks = append(env.marks, env.mark())
	return o
}

// checkMeterParity holds the compiled engine to the interpreter on prog
// under every meter shape: same verdict, error text and vcall trace, and the
// meter — clock and compute bit for bit, instruction count — equal at every
// vcall, at every block entry and at the end. It fails on the first
// difference.
func checkMeterParity(t testing.TB, prog *Program, maxSteps int) {
	t.Helper()
	comp, err := Compile(prog)
	if err != nil {
		t.Fatalf("%s: Compile: %v", prog.Name, err)
	}
	it := NewInterp(prog)
	for _, sh := range meterShapes {
		a := meterRun(it.Run, maxSteps, sh.block, sh.ctx)
		b := meterRun(comp.Run, maxSteps, sh.block, sh.ctx)
		if a.errText != b.errText || (a.errText == "" && a.v != b.v) {
			t.Fatalf("%s %s: interp %d/%q, compiled %d/%q", prog.Name, sh.name, a.v, a.errText, b.v, b.errText)
		}
		if len(a.calls) != len(b.calls) || len(a.marks) != len(b.marks) || len(a.blocks) != len(b.blocks) {
			t.Fatalf("%s %s: interp %d vcalls/%d marks/%d blocks, compiled %d/%d/%d", prog.Name, sh.name,
				len(a.calls), len(a.marks), len(a.blocks), len(b.calls), len(b.marks), len(b.blocks))
		}
		for i := range a.calls {
			if a.calls[i] != b.calls[i] {
				t.Fatalf("%s %s: vcall %d interp %s, compiled %s", prog.Name, sh.name, i, a.calls[i], b.calls[i])
			}
		}
		for i := range a.marks {
			if a.marks[i] != b.marks[i] {
				t.Fatalf("%s %s: meter at mark %d of %d: interp %+v, compiled %+v",
					prog.Name, sh.name, i, len(a.marks), a.marks[i], b.marks[i])
			}
		}
		for i := range a.blocks {
			if a.blocks[i] != b.blocks[i] {
				t.Fatalf("%s %s: block entry %d: interp %+v, compiled %+v", prog.Name, sh.name, i, a.blocks[i], b.blocks[i])
			}
		}
	}
}

// CheckMeterParity lets the external corpus test (compile_cost_test.go) run
// the meter differential over the NF corpus, which this package cannot
// import.
var CheckMeterParity = checkMeterParity

// TestMeterPricesBeforeEachInstruction pins the meter's contract on a
// hand-checked program: each instruction adds its price to the clock and
// then to compute before it executes, a vcall adds nothing itself, and the
// Env's own charges land between the prices in execution order.
func TestMeterPricesBeforeEachInstruction(t *testing.T) {
	b := NewBuilder("priced")
	x := b.Const(3)
	y := b.Bin(OpMul, x, x)
	b.VCall(VCHash, "", y)
	b.Return(NoReg)
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	// const and mul are priced; the vcall adds no price, and meterEnv
	// records the meter before charging its own 1.25+1/3 and 0.3.
	clock, compute := 0.0, 0.0
	clock += testPrices[OpConst]
	compute += testPrices[OpConst]
	clock += testPrices[OpMul]
	compute += testPrices[OpMul]
	atCall := meterMark{math.Float64bits(clock), math.Float64bits(compute), 3}
	clock += 1.25 + 1.0/3
	compute += 0.3
	end := meterMark{math.Float64bits(clock), math.Float64bits(compute), 3}
	for _, eng := range []struct {
		name string
		run  func(Env, *Hooks) (uint64, error)
	}{{"interp", NewInterp(p).Run}, {"compiled", mustCompile(t, p).Run}} {
		o := meterRun(eng.run, 0, false, false)
		if o.errText != "" {
			t.Fatalf("%s: %s", eng.name, o.errText)
		}
		if len(o.marks) != 2 || o.marks[0] != atCall || o.marks[1] != end {
			t.Errorf("%s: meter marks %+v, want [%+v %+v]", eng.name, o.marks, atCall, end)
		}
	}
}

// TestMeterParity runs the meter differential on the hand-built programs.
func TestMeterParity(t *testing.T) {
	for _, prog := range []*Program{buildLinear(t), buildBranchy(t), buildCountedLoop(t)} {
		checkMeterParity(t, prog, 0)
		// A budget that trips mid-run must leave both meters equal too.
		checkMeterParity(t, prog, 7)
	}
}

func mustCompile(t testing.TB, p *Program) *Compiled {
	t.Helper()
	c, err := Compile(p)
	if err != nil {
		t.Fatalf("%s: Compile: %v", p.Name, err)
	}
	return c
}
