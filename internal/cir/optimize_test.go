package cir

import (
	"fmt"
	"testing"
)

// recordingEnv returns deterministic per-call values and logs the vcall
// sequence, so optimized and unoptimized runs can be compared exactly.
type recordingEnv struct {
	calls []string
	n     uint64
}

func (e *recordingEnv) VCall(in *Instr, args []uint64) (uint64, error) {
	e.calls = append(e.calls, fmt.Sprintf("%s/%v", in.Callee, args))
	e.n++
	// A deterministic but varied value stream.
	return (e.n * 2654435761) % 97, nil
}

// runBoth executes a program unoptimized and optimized and asserts identical
// verdicts and vcall traces (same calls, same evaluated arguments).
func runBoth(t *testing.T, p *Program) (changes int) {
	t.Helper()
	opt := p.Clone()
	changes = Optimize(opt)
	if err := Verify(opt); err != nil {
		t.Fatalf("optimizer broke verification: %v\n%s", err, opt)
	}
	envA, envB := &recordingEnv{}, &recordingEnv{}
	va, errA := NewInterp(p).Run(envA, &Hooks{MaxSteps: 200_000})
	vb, errB := NewInterp(opt).Run(envB, &Hooks{MaxSteps: 200_000})
	if (errA == nil) != (errB == nil) {
		t.Fatalf("error behaviour diverged: %v vs %v", errA, errB)
	}
	if errA != nil {
		return changes
	}
	if va != vb {
		t.Fatalf("verdict diverged: %d vs %d\nbefore:\n%s\nafter:\n%s", va, vb, p, opt)
	}
	if len(envA.calls) != len(envB.calls) {
		t.Fatalf("vcall count diverged: %d vs %d\nbefore:\n%s\nafter:\n%s",
			len(envA.calls), len(envB.calls), p, opt)
	}
	for i := range envA.calls {
		if envA.calls[i] != envB.calls[i] {
			t.Fatalf("vcall %d diverged: %s vs %s", i, envA.calls[i], envB.calls[i])
		}
	}
	return changes
}

func TestOptimizeFoldsArithmetic(t *testing.T) {
	b := NewBuilder("fold")
	x := b.Const(6)
	y := b.Const(7)
	z := b.Bin(OpMul, x, y)
	w := b.Const(2)
	r := b.Bin(OpAdd, z, w)
	b.Return(r)
	p := b.MustProgram()
	if ch := runBoth(t, p); ch == 0 {
		t.Error("no folding happened")
	}
	opt := p.Clone()
	Optimize(opt)
	// After folding and DCE the entry should be a single constant + return.
	if n := len(opt.Blocks[0].Instrs); n != 1 {
		t.Errorf("optimized block has %d instrs, want 1:\n%s", n, opt)
	}
	if opt.Blocks[0].Instrs[0].Imm != 44 {
		t.Errorf("folded value = %d, want 44", opt.Blocks[0].Instrs[0].Imm)
	}
}

func TestOptimizeFoldsConstantBranch(t *testing.T) {
	b := NewBuilder("branch")
	one := b.Const(1)
	thenB := b.NewBlock("then")
	elseB := b.NewBlock("else")
	b.Branch(one, thenB, elseB)
	b.SetBlock(thenB)
	b.ReturnConst(7)
	b.SetBlock(elseB)
	b.ReturnConst(9)
	p := b.MustProgram()
	runBoth(t, p)
	opt := p.Clone()
	Optimize(opt)
	if len(opt.Blocks) != 2 {
		t.Errorf("dead arm not removed: %d blocks\n%s", len(opt.Blocks), opt)
	}
}

func TestOptimizePreservesDivByZero(t *testing.T) {
	b := NewBuilder("dbz")
	x := b.Const(5)
	z := b.Const(0)
	r := b.Bin(OpDiv, x, z)
	b.Return(r)
	p := b.MustProgram()
	opt := p.Clone()
	Optimize(opt)
	// Division by constant zero must not fold away: both runs must error.
	if _, err := NewInterp(opt).Run(&recordingEnv{}, nil); err == nil {
		t.Error("optimizer folded away a division by zero")
	}
}

func TestOptimizeKeepsVCallsAndStores(t *testing.T) {
	b := NewBuilder("effects")
	b.AllocScratch(8)
	addr := b.Const(0)
	v := b.VCall(VCPayloadLen, "")
	b.Store(addr, v, 8)
	got := b.Load(addr, 8)
	b.Return(got)
	p := b.MustProgram()
	runBoth(t, p)
	opt := p.Clone()
	Optimize(opt)
	var vcalls, stores int
	for _, blk := range opt.Blocks {
		for _, in := range blk.Instrs {
			switch in.Op {
			case OpVCall:
				vcalls++
			case OpStore:
				stores++
			}
		}
	}
	if vcalls != 1 || stores != 1 {
		t.Errorf("side effects dropped: vcalls=%d stores=%d\n%s", vcalls, stores, opt)
	}
}

func TestOptimizeCopyPropagation(t *testing.T) {
	b := NewBuilder("copies")
	v := b.VCall(VCPayloadLen, "")
	c1 := copyReg(b, v)
	c2 := copyReg(b, c1)
	c3 := copyReg(b, c2)
	two := b.Const(2)
	r := b.Bin(OpMul, c3, two)
	b.Return(r)
	p := b.MustProgram()
	runBoth(t, p)
	opt := p.Clone()
	Optimize(opt)
	// The copy chain should vanish: vcall, const, mul, return.
	if n := len(opt.Blocks[0].Instrs); n > 3 {
		t.Errorf("copy chain survived: %d instrs\n%s", n, opt)
	}
}

func TestOptimizeEmptiedInfiniteLoopStillBounded(t *testing.T) {
	b := NewBuilder("inf")
	x := b.Const(1)
	_ = x
	b.Jump(0)
	p := b.MustProgram()
	opt := p.Clone()
	Optimize(opt)
	if _, err := NewInterp(opt).Run(&recordingEnv{}, &Hooks{MaxSteps: 1000}); err == nil {
		t.Error("empty self-loop did not trip the step limit")
	}
}

// TestOptimizeSemanticsOnCorpusShapes exercises the optimizer against the
// structural patterns the front end emits: loops with mutable slots,
// short-circuit blocks, diamonds over vcalls.
func TestOptimizeSemanticsOnCorpusShapes(t *testing.T) {
	progs := []*Program{
		buildLinear(t),
		buildBranchy(t),
		buildLoop(t),
		buildDiamond(t),
	}
	for _, p := range progs {
		runBoth(t, p)
	}
}

// TestOptimizeLoopCountedByMutableSlot: the canonical non-SSA pattern — a
// loop variable updated via CopyInto — must not be const-folded across the
// back edge.
func TestOptimizeLoopCountedByMutableSlot(t *testing.T) {
	b := NewBuilder("count")
	i := b.FreshReg()
	acc := b.FreshReg()
	zero := b.Const(0)
	b.CopyInto(i, zero)
	b.CopyInto(acc, zero)
	head := b.NewBlock("head")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Jump(head)
	b.SetBlock(head)
	ten := b.Const(10)
	c := b.Bin(OpLt, i, ten)
	b.Branch(c, body, exit)
	b.SetBlock(body)
	a2 := b.Bin(OpAdd, acc, i)
	b.CopyInto(acc, a2)
	one := b.Const(1)
	i2 := b.Bin(OpAdd, i, one)
	b.CopyInto(i, i2)
	b.Jump(head)
	b.SetBlock(exit)
	b.Return(acc)
	p := b.MustProgram()
	runBoth(t, p)
	opt := p.Clone()
	Optimize(opt)
	v, err := NewInterp(opt).Run(&recordingEnv{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != 45 {
		t.Errorf("optimized loop sum = %d, want 45", v)
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := buildDiamond(t)
	q := p.Clone()
	q.Blocks[0].Instrs[0].Imm = 999
	q.State[0].Capacity = 1
	q.Patterns["x"] = []string{"y"}
	if p.Blocks[0].Instrs[0].Imm == 999 {
		t.Error("instruction mutation leaked into original")
	}
	if p.State[0].Capacity == 1 {
		t.Error("state mutation leaked")
	}
	if _, ok := p.Patterns["x"]; ok {
		t.Error("patterns mutation leaked")
	}
}
