package cir

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

// runCompiled compiles p (failing the test on compile error) and runs it.
func runCompiled(t *testing.T, p *Program, env Env, h *Hooks) (uint64, error) {
	t.Helper()
	c, err := Compile(p)
	if err != nil {
		t.Fatalf("%s: Compile: %v", p.Name, err)
	}
	return c.Run(env, h)
}

// TestCompiledOps mirrors TestInterpOps through the compiled path: every
// binary opcode's semantics, including shift-amount masking and float
// bit-pattern round-trips, must be byte-identical to the interpreter's.
func TestCompiledOps(t *testing.T) {
	f := math.Float64bits
	cases := []struct {
		op   Op
		x, y uint64
		want uint64
	}{
		{OpAdd, 7, 3, 10},
		{OpSub, 3, 7, ^uint64(0) - 3}, // wraps
		{OpMul, 7, 3, 21},
		{OpDiv, 7, 3, 2},
		{OpMod, 7, 3, 1},
		{OpAnd, 0b1100, 0b1010, 0b1000},
		{OpOr, 0b1100, 0b1010, 0b1110},
		{OpXor, 0b1100, 0b1010, 0b0110},
		{OpShl, 1, 4, 16},
		{OpShr, 16, 4, 1},
		{OpShl, 1, 64, 1},        // shift amounts mask &63
		{OpShl, 1, 68, 16},       // 68&63 == 4
		{OpShr, 1 << 40, 104, 1}, // 104&63 == 40
		{OpEq, 5, 5, 1},
		{OpNe, 5, 5, 0},
		{OpLt, 3, 5, 1},
		{OpLe, 5, 5, 1},
		{OpGt, 3, 5, 0},
		{OpGe, 5, 5, 1},
		{OpFAdd, f(1.5), f(2.25), f(3.75)},
		{OpFMul, f(1.5), f(4), f(6)},
		{OpFDiv, f(1), f(8), f(0.125)},
		{OpFDiv, f(1), f(0), f(math.Inf(1))},
	}
	for _, c := range cases {
		b := NewBuilder("op")
		x := b.Const(c.x)
		y := b.Const(c.y)
		r := b.Bin(c.op, x, y)
		b.Return(r)
		p, err := b.Program()
		if err != nil {
			t.Fatalf("%s: %v", c.op, err)
		}
		got, err := runCompiled(t, p, &stubEnv{}, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.op, err)
		}
		if got != c.want {
			t.Errorf("compiled %s(%#x,%#x) = %#x, want %#x", c.op, c.x, c.y, got, c.want)
		}
		iv, err := NewInterp(p).Run(&stubEnv{}, nil)
		if err != nil {
			t.Fatalf("%s: interp: %v", c.op, err)
		}
		if got != iv {
			t.Errorf("%s: compiled %#x != interp %#x", c.op, got, iv)
		}
	}
}

// TestCompiledUnaryAndConst covers the remaining value-producing opcodes:
// const, copy, not, and the scratch round-trip (narrow stores included).
func TestCompiledUnaryAndConst(t *testing.T) {
	b := NewBuilder("unary")
	b.AllocScratch(16)
	x := b.Const(0x11223344)
	n := b.Not(x)
	c := copyReg(b, n)
	addr := b.Const(4)
	b.Store(addr, c, 2) // low 2 bytes only
	got := b.Load(addr, 4)
	b.Return(got)
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	v, err := runCompiled(t, p, &stubEnv{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// ^0x11223344 = 0xffffffffeeddccbb; low 2 bytes stored = 0xccbb; the
	// 4-byte load sees the zeroed neighbours above.
	if v != 0xccbb {
		t.Errorf("narrow store/load through compiled path = %#x, want 0xccbb", v)
	}
}

// TestCompiledEveryOpcodeHasACase walks the whole opcode catalog: each must
// compile (a new opcode added without an opFns entry fails here), and
// the first opcode past the catalog must be rejected at compile time.
func TestCompiledEveryOpcodeHasACase(t *testing.T) {
	instrFor := func(op Op) Instr {
		switch op {
		case OpNop:
			return Instr{Op: op}
		case OpConst:
			return Instr{Op: op, Dst: 0, Imm: 7}
		case OpCopy, OpNot:
			return Instr{Op: op, Dst: 0, Args: []Reg{0}}
		case OpLoad:
			return Instr{Op: op, Dst: 0, Args: []Reg{0}, Size: 8}
		case OpStore:
			return Instr{Op: op, Dst: NoReg, Args: []Reg{0, 0}, Size: 8}
		case OpVCall:
			return Instr{Op: op, Dst: 0, Callee: VCPayloadLen}
		default:
			return Instr{Op: op, Dst: 0, Args: []Reg{0, 0}}
		}
	}
	for op := Op(0); int(op) < len(opNames); op++ {
		p := &Program{
			Name:    "probe",
			NumRegs: 1,
			// Big enough that the generic load/store probes stay in bounds.
			ScratchBytes: 64,
			Blocks: []Block{{
				Instrs: []Instr{instrFor(op)},
				Term:   Terminator{Kind: TermReturn, Ret: NoReg},
			}},
		}
		if _, err := Compile(p); err != nil {
			t.Errorf("opcode %s does not compile: %v", op, err)
		}
	}
	bad := &Program{
		Name:    "bad",
		NumRegs: 1,
		Blocks: []Block{{
			Instrs: []Instr{{Op: Op(len(opNames)), Dst: 0}},
			Term:   Terminator{Kind: TermReturn, Ret: NoReg},
		}},
	}
	if _, err := Compile(bad); err == nil || !strings.Contains(err.Error(), "unknown opcode") {
		t.Errorf("unknown opcode: err = %v, want unknown-opcode rejection", err)
	}
}

// TestCompiledTerminators exercises every Terminator kind through the
// compiled path: jumps, both branch directions, value returns and the
// VerdictPass default for a bare return.
func TestCompiledTerminators(t *testing.T) {
	// Branch both ways.
	for _, cond := range []uint64{0, 1, 2, ^uint64(0)} {
		b := NewBuilder("branch")
		c := b.Const(cond)
		thenB := b.NewBlock("then")
		elseB := b.NewBlock("else")
		b.Branch(c, thenB, elseB)
		b.SetBlock(thenB)
		b.ReturnConst(100)
		b.SetBlock(elseB)
		b.ReturnConst(200)
		p, err := b.Program()
		if err != nil {
			t.Fatal(err)
		}
		want := uint64(100) // any non-zero cond takes the then edge
		if cond == 0 {
			want = 200
		}
		v, err := runCompiled(t, p, &stubEnv{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if v != want {
			t.Errorf("branch on %d: verdict %d, want %d", cond, v, want)
		}
	}

	// Jump chain ending in a bare return: VerdictPass default.
	b := NewBuilder("jump")
	mid := b.NewBlock("mid")
	b.Jump(mid)
	b.SetBlock(mid)
	b.Return(NoReg)
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	v, err := runCompiled(t, p, &stubEnv{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != VerdictPass {
		t.Errorf("bare return: verdict %d, want VerdictPass", v)
	}
}

// TestCompileRejectsMalformed checks the compile-time verification contract:
// programs the engine could not execute faithfully are refused by Compile
// with a diagnostic, never deferred to a mid-run fault.
func TestCompileRejectsMalformed(t *testing.T) {
	ret := Terminator{Kind: TermReturn, Ret: NoReg}
	cases := []struct {
		name string
		prog *Program
		want string
	}{
		{"no blocks", &Program{Name: "x"}, "no blocks"},
		{"register file too large", &Program{Name: "x", NumRegs: math.MaxInt32, Blocks: []Block{{Term: ret}}}, "exceed the engine's limit"},
		{"bad arity", &Program{Name: "x", NumRegs: 2, Blocks: []Block{{
			Instrs: []Instr{{Op: OpAdd, Dst: 0, Args: []Reg{1}}}, Term: ret,
		}}}, "wants 2 args"},
		{"dst out of range", &Program{Name: "x", NumRegs: 1, Blocks: []Block{{
			Instrs: []Instr{{Op: OpConst, Dst: 5}}, Term: ret,
		}}}, "out of range"},
		{"arg out of range", &Program{Name: "x", NumRegs: 1, Blocks: []Block{{
			Instrs: []Instr{{Op: OpCopy, Dst: 0, Args: []Reg{9}}}, Term: ret,
		}}}, "out of range"},
		{"NoReg operand", &Program{Name: "x", NumRegs: 1, Blocks: []Block{{
			Instrs: []Instr{{Op: OpCopy, Dst: 0, Args: []Reg{NoReg}}}, Term: ret,
		}}}, "NoReg used as operand"},
		{"bad load size", &Program{Name: "x", NumRegs: 1, Blocks: []Block{{
			Instrs: []Instr{{Op: OpLoad, Dst: 0, Args: []Reg{0}, Size: 3}}, Term: ret,
		}}}, "invalid access size"},
		{"store with dst", &Program{Name: "x", NumRegs: 1, Blocks: []Block{{
			Instrs: []Instr{{Op: OpStore, Dst: 0, Args: []Reg{0, 0}, Size: 8}}, Term: ret,
		}}}, "store must not produce a value"},
		{"jump out of range", &Program{Name: "x", NumRegs: 1, Blocks: []Block{
			{Term: Terminator{Kind: TermJump, Then: 7}},
		}}, "jump target"},
		{"branch out of range", &Program{Name: "x", NumRegs: 1, Blocks: []Block{
			{Term: Terminator{Kind: TermBranch, Cond: 0, Then: 0, Else: 9}},
		}}, "branch targets"},
		{"branch cond NoReg", &Program{Name: "x", NumRegs: 1, Blocks: []Block{
			{Term: Terminator{Kind: TermBranch, Cond: NoReg, Then: 0, Else: 0}},
		}}, "branch condition"},
		{"return reg out of range", &Program{Name: "x", NumRegs: 1, Blocks: []Block{
			{Term: Terminator{Kind: TermReturn, Ret: 4}},
		}}, "return register"},
		{"bad terminator kind", &Program{Name: "x", NumRegs: 1, Blocks: []Block{
			{Term: Terminator{Kind: TermKind(9)}},
		}}, "invalid terminator"},
	}
	for _, c := range cases {
		_, err := Compile(c.prog)
		if err == nil {
			t.Errorf("%s: Compile accepted a malformed program", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
}

// TestDivModSentinels pins the shared arithmetic fault sentinels: both
// engines must return errors.Is-comparable errors with identical text, for
// division and modulo alike, including through instructions with no
// destination (the fault fires even when the quotient is discarded).
func TestDivModSentinels(t *testing.T) {
	for _, c := range []struct {
		op       Op
		sentinel error
		text     string
	}{
		{OpDiv, ErrDivByZero, "division by zero"},
		{OpMod, ErrModByZero, "modulo by zero"},
	} {
		b := NewBuilder("dbz")
		x := b.Const(1)
		z := b.Const(0)
		r := b.Bin(c.op, x, z)
		b.Return(r)
		p, err := b.Program()
		if err != nil {
			t.Fatal(err)
		}
		_, iErr := NewInterp(p).Run(&stubEnv{}, nil)
		_, cErr := runCompiled(t, p, &stubEnv{}, nil)
		for name, err := range map[string]error{"interp": iErr, "compiled": cErr} {
			if !errors.Is(err, c.sentinel) {
				t.Errorf("%s %s: errors.Is(%v, sentinel) = false", c.op, name, err)
			}
			if err == nil || !strings.Contains(err.Error(), c.text) {
				t.Errorf("%s %s: err = %v, want %q", c.op, name, err, c.text)
			}
		}
		if iErr.Error() != cErr.Error() {
			t.Errorf("%s: error text diverged:\n  interp:   %s\n  compiled: %s", c.op, iErr, cErr)
		}

		// The fault must fire with a discarded destination too.
		pd := &Program{Name: "dbz-noreg", NumRegs: 2, Blocks: []Block{{
			Instrs: []Instr{
				{Op: OpConst, Dst: 0, Imm: 1},
				{Op: OpConst, Dst: 1, Imm: 0},
				{Op: c.op, Dst: NoReg, Args: []Reg{0, 1}},
			},
			Term: Terminator{Kind: TermReturn, Ret: NoReg},
		}}}
		if _, err := runCompiled(t, pd, &stubEnv{}, nil); !errors.Is(err, c.sentinel) {
			t.Errorf("%s with NoReg dst: err = %v, want sentinel", c.op, err)
		}
	}
}

// TestCompiledScratchBounds checks the runtime bounds faults survive
// compilation with the interpreter's exact error text, on loads and stores,
// with and without a destination register.
func TestCompiledScratchBounds(t *testing.T) {
	build := func(op Op, dst Reg) *Program {
		in := Instr{Op: op, Dst: dst, Args: []Reg{0}, Size: 8}
		if op == OpStore {
			in.Dst = NoReg
			in.Args = []Reg{0, 0}
		}
		return &Program{Name: "oob", NumRegs: 2, ScratchBytes: 4, Blocks: []Block{{
			Instrs: []Instr{
				{Op: OpConst, Dst: 0, Imm: 2}, // bytes 2..9 of 4
				in,
			},
			Term: Terminator{Kind: TermReturn, Ret: NoReg},
		}}}
	}
	for _, c := range []struct {
		op   Op
		dst  Reg
		want string
	}{
		{OpLoad, 1, "scratch load out of bounds"},
		{OpLoad, NoReg, "scratch load out of bounds"},
		{OpStore, NoReg, "scratch store out of bounds"},
	} {
		p := build(c.op, c.dst)
		_, iErr := NewInterp(p).Run(&stubEnv{}, nil)
		_, cErr := runCompiled(t, p, &stubEnv{}, nil)
		if cErr == nil || !strings.Contains(cErr.Error(), c.want) {
			t.Errorf("%s dst=%s: compiled err = %v, want %q", c.op, c.dst, cErr, c.want)
		}
		if iErr == nil || iErr.Error() != cErr.Error() {
			t.Errorf("%s dst=%s: error text diverged:\n  interp:   %v\n  compiled: %v", c.op, c.dst, iErr, cErr)
		}
	}
}

// TestCompiledMatchesInterp runs the shared program corpus through both
// engines — fast and metered paths each — and requires identical verdicts,
// identical vcall traces (callee and evaluated arguments), identical meter
// bookings, and identical register state.
func TestCompiledMatchesInterp(t *testing.T) {
	for _, prog := range []*Program{buildLinear(t), buildBranchy(t), buildCountedLoop(t)} {
		it := NewInterp(prog)
		comp, err := Compile(prog)
		if err != nil {
			t.Fatalf("%s: Compile: %v", prog.Name, err)
		}

		iEnv, cEnv := &recordingEnv{}, &recordingEnv{}
		iv, iErr := it.Run(iEnv, nil)
		cv, cErr := comp.Run(cEnv, nil)
		if iErr != nil || cErr != nil {
			t.Fatalf("%s: interp err %v, compiled err %v", prog.Name, iErr, cErr)
		}
		if iv != cv {
			t.Errorf("%s: verdict %d interp, %d compiled", prog.Name, iv, cv)
		}
		if len(iEnv.calls) != len(cEnv.calls) {
			t.Fatalf("%s: %d vcalls interp, %d compiled", prog.Name, len(iEnv.calls), len(cEnv.calls))
		}
		for i := range iEnv.calls {
			if iEnv.calls[i] != cEnv.calls[i] {
				t.Errorf("%s: vcall %d = %q interp, %q compiled", prog.Name, i, iEnv.calls[i], cEnv.calls[i])
			}
		}
		for r := 0; r < prog.NumRegs; r++ {
			if it.Reg(Reg(r)) != comp.Reg(Reg(r)) {
				t.Errorf("%s: r%d = %d interp, %d compiled", prog.Name, r, it.Reg(Reg(r)), comp.Reg(Reg(r)))
			}
		}

		// Metered arms: the meter at every vcall, block entry and the end,
		// under every hook shape, bit for bit.
		checkMeterParity(t, prog, 0)

		// Step-accounting parity: every MaxSteps budget up to completion must
		// trip both engines identically, with identical error text.
		for budget := 1; budget < 10_000; budget++ {
			_, iErr := it.Run(&recordingEnv{}, &Hooks{MaxSteps: budget})
			_, cErr := comp.Run(&recordingEnv{}, &Hooks{MaxSteps: budget})
			if (iErr == nil) != (cErr == nil) {
				t.Fatalf("%s: at MaxSteps=%d interp err %v, compiled err %v", prog.Name, budget, iErr, cErr)
			}
			if iErr != nil && iErr.Error() != cErr.Error() {
				t.Fatalf("%s: at MaxSteps=%d error text diverged:\n  interp:   %v\n  compiled: %v",
					prog.Name, budget, iErr, cErr)
			}
			if iErr == nil {
				break
			}
		}
	}
}

// TestCompiledStepLimit pins the limit error text (both trip points: block
// entry and instruction) and ErrStepLimit identity on the compiled engine.
func TestCompiledStepLimit(t *testing.T) {
	b := NewBuilder("inf")
	b.Const(0)
	b.Jump(0)
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{100, 101} { // trip on block entry and on instr
		_, cErr := comp.Run(&stubEnv{}, &Hooks{MaxSteps: budget})
		if !errors.Is(cErr, ErrStepLimit) {
			t.Fatalf("MaxSteps=%d: err = %v, want ErrStepLimit", budget, cErr)
		}
		_, iErr := NewInterp(p).Run(&stubEnv{}, &Hooks{MaxSteps: budget})
		if iErr.Error() != cErr.Error() {
			t.Errorf("MaxSteps=%d: error text diverged:\n  interp:   %v\n  compiled: %v", budget, iErr, cErr)
		}
	}
}

// TestCompiledCancellation checks the compiled hooked loop honors context
// cancellation with the interpreter's poll cadence and error text.
func TestCompiledCancellation(t *testing.T) {
	b := NewBuilder("spin")
	b.Const(0)
	b.Jump(0)
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	comp, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	_, cErr := comp.Run(&stubEnv{}, &Hooks{Ctx: ctx, MaxSteps: 1_000_000})
	if cErr == nil || !strings.Contains(cErr.Error(), "interrupted") {
		t.Fatalf("compiled: err = %v, want interruption", cErr)
	}
	_, iErr := NewInterp(p).Run(&stubEnv{}, &Hooks{Ctx: ctx, MaxSteps: 1_000_000})
	if iErr == nil || iErr.Error() != cErr.Error() {
		t.Errorf("error text diverged:\n  interp:   %v\n  compiled: %v", iErr, cErr)
	}
}

// TestCompiledVCallFaultText checks an Env error surfaces with the same
// block/instruction wrapping on both engines.
func TestCompiledVCallFaultText(t *testing.T) {
	b := NewBuilder("vfault")
	b.VCall(VCPayloadLen, "")
	b.ReturnConst(VerdictPass)
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("env exploded")
	env := errEnv{err: boom}
	_, iErr := NewInterp(p).Run(env, nil)
	_, cErr := runCompiled(t, p, env, nil)
	if !errors.Is(cErr, boom) {
		t.Fatalf("compiled: err = %v, want wrapped env error", cErr)
	}
	if iErr == nil || iErr.Error() != cErr.Error() {
		t.Errorf("error text diverged:\n  interp:   %v\n  compiled: %v", iErr, cErr)
	}
	if !strings.Contains(cErr.Error(), "cir: block 0") {
		t.Errorf("compiled err %q lacks block/instr location", cErr)
	}
}

// TestCompiledRunDropsEnv checks Run leaves no reference to its Env on the
// engine, on a normal return and on an error return: an engine kept idle
// between runs must not keep its last caller's environment reachable.
func TestCompiledRunDropsEnv(t *testing.T) {
	b := NewBuilder("env")
	b.VCall(VCPayloadLen, "")
	b.ReturnConst(VerdictPass)
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, env := range []Env{&stubEnv{}, errEnv{err: errors.New("env exploded")}} {
		comp.Run(env, nil)
		if comp.st.env != nil {
			t.Errorf("after Run with %T the engine still holds its Env", env)
		}
	}
}

type errEnv struct{ err error }

func (e errEnv) VCall(*Instr, []uint64) (uint64, error) { return 0, e.err }

// TestCompiledRunDoesNotAllocate pins the compiled engine's allocation
// contract, mirroring TestInterpRunDoesNotAllocate: steady-state Runs on a
// prepared Compiled perform zero heap allocations on both inner loops.
func TestCompiledRunDoesNotAllocate(t *testing.T) {
	for _, prog := range []*Program{buildLinear(t), buildBranchy(t), buildCountedLoop(t)} {
		comp, err := Compile(prog)
		if err != nil {
			t.Fatalf("%s: Compile: %v", prog.Name, err)
		}
		env := &stubEnv{ret: map[VCall]uint64{VCGetHdr: 1}}
		run := func(h *Hooks) {
			env.calls = env.calls[:0]
			if _, err := comp.Run(env, h); err != nil {
				t.Fatal(err)
			}
		}
		run(nil) // warm stubEnv's calls slice to capacity

		if n := testing.AllocsPerRun(50, func() { run(nil) }); n > 0 {
			t.Errorf("%s: compiled fast path allocates %.1f per Run, want 0", prog.Name, n)
		}
		var clock, compute float64
		var steps int64
		meter := &Meter{Prices: &testPrices, Clock: &clock, Compute: &compute, Steps: &steps}
		hooks := &Hooks{Meter: meter, MaxSteps: 10_000, Ctx: context.Background()}
		if n := testing.AllocsPerRun(50, func() { run(hooks) }); n > 0 {
			t.Errorf("%s: compiled hooked path allocates %.1f per Run, want 0", prog.Name, n)
		}
	}
}

// TestScratchAddressOverflow is the regression test for a bug the
// differential fuzzer found: the scratch bounds check computed addr+size,
// which wraps for addresses near 2^64 (e.g. Not(0)) and let the access sail
// past the check into a panic. Both engines must fault cleanly instead.
func TestScratchAddressOverflow(t *testing.T) {
	for _, op := range []Op{OpLoad, OpStore} {
		b := NewBuilder("wrap")
		b.AllocScratch(24)
		zero := b.Const(0)
		addr := b.Not(zero) // 0xffffffffffffffff
		if op == OpLoad {
			b.Load(addr, 8)
		} else {
			b.Store(addr, zero, 8)
		}
		b.Return(NoReg)
		p, err := b.Program()
		if err != nil {
			t.Fatal(err)
		}
		_, iErr := NewInterp(p).Run(&stubEnv{}, nil)
		_, cErr := runCompiled(t, p, &stubEnv{}, nil)
		if iErr == nil || cErr == nil {
			t.Fatalf("%s at 2^64-1: interp err %v, compiled err %v; want bounds faults", op, iErr, cErr)
		}
		if iErr.Error() != cErr.Error() {
			t.Errorf("%s: error text diverged:\n  interp:   %v\n  compiled: %v", op, iErr, cErr)
		}
	}
}

// The tests below keep the program shapes a since-removed superinstruction
// pass used to fuse (const+binop, load+op, a block-ending compare feeding
// its own branch) and the shapes it had to leave alone. They stay as
// regression cases: each pins step accounting, fault locations and register
// writes at exactly the instruction boundaries a pairing engine could blur.

// pairDiff runs prog through the interpreter and the compiled engine under
// the given step budget and fails on any divergence in (verdict, error
// text, vcall trace). It returns the interpreter's verdict and error text.
func pairDiff(t *testing.T, prog *Program, maxSteps int) (uint64, string) {
	t.Helper()
	type out struct {
		v     uint64
		err   string
		calls []string
	}
	runOne := func(engine func(Env, *Hooks) (uint64, error)) out {
		env := &recordingEnv{}
		v, err := engine(env, &Hooks{MaxSteps: maxSteps})
		o := out{v: v, calls: env.calls}
		if err != nil {
			o.err = err.Error()
		}
		return o
	}
	comp, err := Compile(prog)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	ref, o := runOne(NewInterp(prog).Run), runOne(comp.Run)
	if o.err != ref.err || (ref.err == "" && o.v != ref.v) || fmt.Sprint(o.calls) != fmt.Sprint(ref.calls) {
		t.Fatalf("compiled diverged from interp:\n  interp:   v=%d err=%q calls=%v\n  compiled: v=%d err=%q calls=%v\n%s",
			ref.v, ref.err, ref.calls, o.v, o.err, o.calls, prog)
	}
	return ref.v, ref.err
}

// TestFusionTemplates runs each former fusion template, and each shape the
// pass had to refuse, through both engines.
func TestFusionTemplates(t *testing.T) {
	cases := []struct {
		name string
		prog *Program
	}{
		{
			// A const feeding an add.
			name: "const+binop",
			prog: &Program{Name: "f", NumRegs: 3, Blocks: []Block{{
				Instrs: []Instr{
					{Op: OpConst, Dst: 0, Imm: 7},
					{Op: OpConst, Dst: 1, Imm: 35},
					{Op: OpAdd, Dst: 2, Args: []Reg{0, 1}},
				},
				Term: Terminator{Kind: TermReturn, Ret: 2},
			}}},
		},
		{
			// A load next to an op it does not feed.
			name: "load+op",
			prog: &Program{Name: "f", NumRegs: 3, ScratchBytes: 16, Blocks: []Block{{
				Instrs: []Instr{
					{Op: OpConst, Dst: 0, Imm: 4},
					{Op: OpLoad, Dst: 1, Args: []Reg{0}, Size: 8},
					{Op: OpXor, Dst: 2, Args: []Reg{0, 0}},
				},
				Term: Terminator{Kind: TermReturn, Ret: 2},
			}}},
		},
		{
			// A block-ending compare whose Dst is the branch condition.
			name: "compare+branch",
			prog: &Program{Name: "f", NumRegs: 2, Blocks: []Block{
				{
					Instrs: []Instr{
						{Op: OpConst, Dst: 0, Imm: 3},
						{Op: OpConst, Dst: 1, Imm: 3},
						{Op: OpEq, Dst: 0, Args: []Reg{0, 1}},
					},
					Term: Terminator{Kind: TermBranch, Cond: 0, Then: 1, Else: 2},
				},
				{Term: Terminator{Kind: TermReturn, Ret: 0}},
				{Term: Terminator{Kind: TermReturn, Ret: 1}},
			}},
		},
		{
			// A compare result parked in a different register than the
			// branch condition.
			name: "compare-not-cond",
			prog: &Program{Name: "f", NumRegs: 3, Blocks: []Block{
				{
					Instrs: []Instr{
						{Op: OpConst, Dst: 2, Imm: 1},
						{Op: OpEq, Dst: 0, Args: []Reg{2, 2}},
					},
					Term: Terminator{Kind: TermBranch, Cond: 2, Then: 1, Else: 1},
				},
				{Term: Terminator{Kind: TermReturn, Ret: 0}},
			}},
		},
		{
			// A const feeding a division, which can fault.
			name: "div-not-fused",
			prog: &Program{Name: "f", NumRegs: 2, Blocks: []Block{{
				Instrs: []Instr{
					{Op: OpConst, Dst: 0, Imm: 8},
					{Op: OpDiv, Dst: 1, Args: []Reg{0, 0}},
				},
				Term: Terminator{Kind: TermReturn, Ret: 1},
			}}},
		},
		{
			// A NoReg-destination op, which lowers to the shared no-op.
			name: "noreg-second-half",
			prog: &Program{Name: "f", NumRegs: 2, Blocks: []Block{{
				Instrs: []Instr{
					{Op: OpConst, Dst: 0, Imm: 8},
					{Op: OpAdd, Dst: NoReg, Args: []Reg{0, 0}},
				},
				Term: Terminator{Kind: TermReturn, Ret: 0},
			}}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pairDiff(t, tc.prog, 1000)
		})
	}
}

// TestFusionMidPairStepTrip expires the budget exactly between a const and
// the add it feeds and checks both engines agree on the instruction-trip
// error, byte for byte.
func TestFusionMidPairStepTrip(t *testing.T) {
	prog := &Program{Name: "trip", NumRegs: 3, Blocks: []Block{{
		Instrs: []Instr{
			{Op: OpConst, Dst: 0, Imm: 7},          // step 2 (block entry is 1)
			{Op: OpConst, Dst: 1, Imm: 35},         // step 3
			{Op: OpAdd, Dst: 2, Args: []Reg{0, 1}}, // step 4
		},
		Term: Terminator{Kind: TermReturn, Ret: 2},
	}}}
	// maxSteps=3 admits the second const but not the add.
	_, errText := pairDiff(t, prog, 3)
	want := "cir: step limit exceeded (3 instructions) in trip"
	if errText != want {
		t.Fatalf("mid-pair trip error = %q, want %q", errText, want)
	}
	// One step more and the add completes.
	if v, errText := pairDiff(t, prog, 4); errText != "" || v != 42 {
		t.Fatalf("post-pair run = (%d, %q), want (42, \"\")", v, errText)
	}
}

// TestFusionLoadFault faults a load followed by an add and checks the
// wrapped bounds error names the load, identically in both engines.
func TestFusionLoadFault(t *testing.T) {
	prog := &Program{Name: "oob", NumRegs: 3, ScratchBytes: 8, Blocks: []Block{{
		Instrs: []Instr{
			{Op: OpConst, Dst: 0, Imm: 7},
			{Op: OpLoad, Dst: 1, Args: []Reg{0}, Size: 8}, // 7+8 > 8: faults
			{Op: OpAdd, Dst: 2, Args: []Reg{1, 1}},
		},
		Term: Terminator{Kind: TermReturn, Ret: 2},
	}}}
	_, errText := pairDiff(t, prog, 1000)
	want := `cir: block 0 "r1 = load r0 sz=8": scratch load out of bounds: addr=7 size=8 len=8`
	if errText != want {
		t.Fatalf("load fault = %q, want %q", errText, want)
	}
}

// TestFusedBranchWritesRegister loops through a compare+branch whose result
// register is read after the loop: the compare must still write it.
func TestFusedBranchWritesRegister(t *testing.T) {
	// r0 counts down from 5; block 1 returns the final compare result.
	prog := &Program{Name: "loop", NumRegs: 3, Blocks: []Block{
		{
			Instrs: []Instr{
				{Op: OpConst, Dst: 1, Imm: 1},
				{Op: OpSub, Dst: 0, Args: []Reg{0, 1}},
				{Op: OpConst, Dst: 2, Imm: ^uint64(0) - 2},
				{Op: OpLt, Dst: 2, Args: []Reg{0, 2}},
			},
			Term: Terminator{Kind: TermBranch, Cond: 2, Then: 0, Else: 1},
		},
		{Term: Terminator{Kind: TermReturn, Ret: 2}},
	}}
	v, errText := pairDiff(t, prog, 1_000_000)
	if errText != "" || v != 0 {
		t.Fatalf("loop run = (%d, %q), want (0, \"\")", v, errText)
	}
}

// TestFusedBranchAllCompares drives every comparison kind into a branch on
// its own result, on operand pairs covering both outcomes.
func TestFusedBranchAllCompares(t *testing.T) {
	ops := []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	pairs := [][2]uint64{{3, 3}, {3, 9}, {9, 3}}
	for _, op := range ops {
		for _, ab := range pairs {
			prog := &Program{Name: "cmp", NumRegs: 3, Blocks: []Block{
				{
					Instrs: []Instr{
						{Op: OpConst, Dst: 0, Imm: ab[0]},
						{Op: OpConst, Dst: 1, Imm: ab[1]},
						{Op: op, Dst: 2, Args: []Reg{0, 1}},
					},
					Term: Terminator{Kind: TermBranch, Cond: 2, Then: 1, Else: 2},
				},
				{Term: Terminator{Kind: TermReturn, Ret: 0}},
				{Term: Terminator{Kind: TermReturn, Ret: 1}},
			}}
			pairDiff(t, prog, 1000)
		}
	}
}
