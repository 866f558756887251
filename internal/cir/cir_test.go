package cir

import (
	"strings"
	"testing"
)

// Reg returns the current value of one of the interpreter's registers.
func (it *Interp) Reg(r Reg) uint64 { return it.regs[r] }

// copyReg emits a copy of src into a fresh register.
func copyReg(b *Builder, src Reg) Reg {
	dst := b.FreshReg()
	b.CopyInto(dst, src)
	return dst
}

// buildLinear returns a trivial straight-line program: r = 2+3, return pass.
func buildLinear(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("linear")
	x := b.Const(2)
	y := b.Const(3)
	b.Bin(OpAdd, x, y)
	b.ReturnConst(VerdictPass)
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// buildBranchy builds: if proto==TCP then drop else pass, with a parse first.
func buildBranchy(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("branchy")
	proto := b.Const(ProtoIPv4)
	b.VCall(VCGetHdr, "", proto)
	pr := b.Const(ProtoIPv4)
	fld := b.Const(FieldProto)
	v := b.VCall(VCHdrField, "", pr, fld)
	tcp := b.Const(6)
	isTCP := b.Bin(OpEq, v, tcp)
	thenB := b.NewBlock("drop")
	elseB := b.NewBlock("pass")
	b.Branch(isTCP, thenB, elseB)
	b.SetBlock(thenB)
	b.ReturnConst(VerdictDrop)
	b.SetBlock(elseB)
	b.ReturnConst(VerdictPass)
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// buildLoop builds a counted loop summing 0..9 into scratch.
func buildLoop(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("loop")
	off := b.AllocScratch(8)
	if off != 0 {
		t.Fatalf("first alloc at %d, want 0", off)
	}
	addr := b.Const(uint64(off))
	zero := b.Const(0)
	b.Store(addr, zero, 8)
	i := copyReg(b, zero)
	head := b.NewBlock("head")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Jump(head)

	b.SetBlock(head)
	ten := b.Const(10)
	cond := b.Bin(OpLt, i, ten)
	b.Branch(cond, body, exit)

	b.SetBlock(body)
	cur := b.Load(addr, 8)
	sum := b.Bin(OpAdd, cur, i)
	b.Store(addr, sum, 8)
	one := b.Const(1)
	i2 := b.Bin(OpAdd, i, one)
	// Write back loop variable (non-SSA IR allows register reuse via Copy
	// into the same reg? No — emulate with a store/load through scratch).
	_ = i2
	b.Store(addr, sum, 8)
	b.Jump(head)

	b.SetBlock(exit)
	b.ReturnConst(VerdictPass)
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

type stubEnv struct {
	calls []VCall
	ret   map[VCall]uint64
}

func (e *stubEnv) VCall(in *Instr, args []uint64) (uint64, error) {
	e.calls = append(e.calls, in.Callee)
	return e.ret[in.Callee], nil
}

func TestInterpLinear(t *testing.T) {
	p := buildLinear(t)
	it := NewInterp(p)
	v, err := it.Run(&stubEnv{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != VerdictPass {
		t.Errorf("verdict = %d", v)
	}
	if got := it.Reg(2); got != 5 {
		t.Errorf("r2 = %d, want 5", got)
	}
}

func TestInterpBranchTaken(t *testing.T) {
	p := buildBranchy(t)
	env := &stubEnv{ret: map[VCall]uint64{VCHdrField: 6}}
	v, err := NewInterp(p).Run(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != VerdictDrop {
		t.Errorf("verdict = %d, want drop", v)
	}
	env2 := &stubEnv{ret: map[VCall]uint64{VCHdrField: 17}}
	v, err = NewInterp(p).Run(env2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != VerdictPass {
		t.Errorf("verdict = %d, want pass", v)
	}
}

func TestInterpOps(t *testing.T) {
	cases := []struct {
		op   Op
		x, y uint64
		want uint64
	}{
		{OpAdd, 7, 3, 10},
		{OpSub, 7, 3, 4},
		{OpMul, 7, 3, 21},
		{OpDiv, 7, 3, 2},
		{OpMod, 7, 3, 1},
		{OpAnd, 0b1100, 0b1010, 0b1000},
		{OpOr, 0b1100, 0b1010, 0b1110},
		{OpXor, 0b1100, 0b1010, 0b0110},
		{OpShl, 1, 4, 16},
		{OpShr, 16, 4, 1},
		{OpEq, 5, 5, 1},
		{OpNe, 5, 5, 0},
		{OpLt, 3, 5, 1},
		{OpLe, 5, 5, 1},
		{OpGt, 3, 5, 0},
		{OpGe, 5, 5, 1},
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
		v, err := NewInterp(p).Run(&stubEnv{}, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.op, err)
		}
		if v != c.want {
			t.Errorf("%s(%d,%d) = %d, want %d", c.op, c.x, c.y, v, c.want)
		}
	}
}

func TestInterpDivByZero(t *testing.T) {
	b := NewBuilder("dbz")
	x := b.Const(1)
	z := b.Const(0)
	r := b.Bin(OpDiv, x, z)
	b.Return(r)
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewInterp(p).Run(&stubEnv{}, nil); err == nil {
		t.Error("want division-by-zero error")
	}
}

func TestInterpScratchBounds(t *testing.T) {
	b := NewBuilder("oob")
	b.AllocScratch(4)
	addr := b.Const(2)
	r := b.Load(addr, 4) // bytes 2..5 of a 4-byte scratch
	b.Return(r)
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewInterp(p).Run(&stubEnv{}, nil); err == nil {
		t.Error("want out-of-bounds error")
	}
}

func TestInterpStepLimit(t *testing.T) {
	b := NewBuilder("inf")
	b.Const(0) // ensure at least one instr per visit
	b.Jump(0)
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewInterp(p).Run(&stubEnv{}, &Hooks{MaxSteps: 100})
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Errorf("err = %v, want step limit", err)
	}
}

func TestInterpHooks(t *testing.T) {
	p := buildBranchy(t)
	var instrs int64
	var blocks int
	h := &Hooks{
		Meter:   &Meter{Steps: &instrs},
		OnBlock: func(int) { blocks++ },
	}
	if _, err := NewInterp(p).Run(&stubEnv{ret: map[VCall]uint64{VCHdrField: 6}}, h); err != nil {
		t.Fatal(err)
	}
	if instrs == 0 || blocks != 2 {
		t.Errorf("instrs=%d blocks=%d, want >0 and 2", instrs, blocks)
	}
}

func TestInterpScratchRoundTrip(t *testing.T) {
	b := NewBuilder("scratch")
	b.AllocScratch(16)
	addr := b.Const(8)
	val := b.Const(0xdeadbeefcafe)
	b.Store(addr, val, 8)
	got := b.Load(addr, 8)
	b.Return(got)
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewInterp(p).Run(&stubEnv{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xdeadbeefcafe {
		t.Errorf("round trip = %#x", v)
	}
}

func TestInterpNarrowStore(t *testing.T) {
	b := NewBuilder("narrow")
	b.AllocScratch(8)
	addr := b.Const(0)
	val := b.Const(0x11223344)
	b.Store(addr, val, 2) // only low 2 bytes
	got := b.Load(addr, 4)
	b.Return(got)
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewInterp(p).Run(&stubEnv{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x3344 {
		t.Errorf("narrow store/load = %#x, want 0x3344", v)
	}
}

// wantVerifyError checks that Verify rejects p with exactly the message want.
func wantVerifyError(t *testing.T, p *Program, want string) {
	t.Helper()
	err := Verify(p)
	if err == nil {
		t.Fatalf("Verify accepted the program, want error %q", want)
	}
	if got := err.Error(); got != want {
		t.Errorf("Verify error %q, want %q", got, want)
	}
}

func TestVerifyCatchesBadJump(t *testing.T) {
	p := &Program{
		Name:    "bad",
		NumRegs: 1,
		Blocks: []Block{
			{Term: Terminator{Kind: TermJump, Then: 7}},
		},
	}
	wantVerifyError(t, p, `cir: block 0 jump target 7 out of range`)
}

func TestVerifyCatchesUndeclaredState(t *testing.T) {
	p := &Program{
		Name:    "bad",
		NumRegs: 1,
		Blocks: []Block{
			{
				Instrs: []Instr{{Op: OpVCall, Dst: 0, Callee: VCMapLookup, State: "nosuch"}},
				Term:   Terminator{Kind: TermReturn, Ret: NoReg},
			},
		},
	}
	wantVerifyError(t, p, `cir: block 0 instr 0 (r0 = vcall map_lookup[nosuch]): vcall references undeclared state "nosuch"`)
}

func TestVerifyCatchesUnknownVCall(t *testing.T) {
	p := &Program{
		Name:    "bad",
		NumRegs: 1,
		Blocks: []Block{
			{
				Instrs: []Instr{{Op: OpVCall, Dst: 0, Callee: NumVCalls}},
				Term:   Terminator{Kind: TermReturn, Ret: NoReg},
			},
		},
	}
	wantVerifyError(t, p, `cir: block 0 instr 0 (r0 = vcall vcall(25)): unknown vcall "vcall(25)"`)
}

func TestVerifyCatchesRegisterOutOfRange(t *testing.T) {
	p := &Program{
		Name:    "bad",
		NumRegs: 1,
		Blocks: []Block{
			{
				Instrs: []Instr{{Op: OpCopy, Dst: 0, Args: []Reg{5}}},
				Term:   Terminator{Kind: TermReturn, Ret: NoReg},
			},
		},
	}
	wantVerifyError(t, p, `cir: block 0 instr 0 (r0 = copy r5): register r5 out of range (NumRegs=1)`)
}

func TestVerifyCatchesUnreachable(t *testing.T) {
	p := &Program{
		Name:    "bad",
		NumRegs: 1,
		Blocks: []Block{
			{Term: Terminator{Kind: TermReturn, Ret: NoReg}},
			{Term: Terminator{Kind: TermReturn, Ret: NoReg}}, // unreachable
		},
	}
	wantVerifyError(t, p, `cir: program bad has unreachable blocks`)
}

func TestVerifyCatchesBadArity(t *testing.T) {
	p := &Program{
		Name:    "bad",
		NumRegs: 2,
		Blocks: []Block{
			{
				Instrs: []Instr{{Op: OpAdd, Dst: 0, Args: []Reg{1}}},
				Term:   Terminator{Kind: TermReturn, Ret: NoReg},
			},
		},
	}
	wantVerifyError(t, p, `cir: block 0 instr 0 (r0 = add r1): add wants 2 args, has 1`)
}

// TestVerifyCatchesBadRegisters covers the register checks on destinations,
// operands and terminators, each with its location in the message.
func TestVerifyCatchesBadRegisters(t *testing.T) {
	ret := Terminator{Kind: TermReturn, Ret: NoReg}
	cases := []struct {
		name string
		blk  Block
		want string
	}{
		{"dst", Block{Instrs: []Instr{{Op: OpConst, Dst: 9}}, Term: ret},
			`cir: block 0 instr 0 (r9 = const 0): register r9 out of range (NumRegs=1)`},
		{"noreg-operand", Block{Instrs: []Instr{{Op: OpCopy, Dst: 0, Args: []Reg{NoReg}}}, Term: ret},
			`cir: block 0 instr 0 (r0 = copy _): NoReg used as operand`},
		{"branch-cond", Block{Term: Terminator{Kind: TermBranch, Cond: 3}},
			`cir: block 0 terminator: register r3 out of range (NumRegs=1)`},
		{"return-value", Block{Term: Terminator{Kind: TermReturn, Ret: 4}},
			`cir: block 0 terminator: register r4 out of range (NumRegs=1)`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wantVerifyError(t, &Program{Name: "bad", NumRegs: 1, Blocks: []Block{c.blk}}, c.want)
		})
	}
}

func TestBuilderUnsealedBlock(t *testing.T) {
	b := NewBuilder("unsealed")
	b.Const(1)
	if _, err := b.Program(); err == nil {
		t.Error("want error for unsealed block")
	}
}

func TestProgramString(t *testing.T) {
	p := buildBranchy(t)
	s := p.String()
	for _, want := range []string{"program branchy", "vcall get_hdr", "branch", "return"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestClassOf(t *testing.T) {
	cases := map[Op]Class{
		OpAdd: ClassALU, OpMul: ClassMul, OpDiv: ClassDiv, OpMod: ClassDiv,
		OpFAdd: ClassFloat, OpLoad: ClassMem, OpStore: ClassMem,
		OpVCall: ClassVCall, OpNop: ClassNop, OpEq: ClassALU,
	}
	for op, want := range cases {
		if got := ClassOf(op); got != want {
			t.Errorf("ClassOf(%s) = %s, want %s", op, got, want)
		}
	}
}

func TestStateObjBytes(t *testing.T) {
	s := StateObj{KeySize: 13, ValueSize: 8, Capacity: 1000}
	if s.Bytes() != 21000 {
		t.Errorf("Bytes = %d", s.Bytes())
	}
	empty := StateObj{Capacity: 64}
	if empty.Bytes() != 64 {
		t.Errorf("zero-size entries should count 1 byte each, got %d", empty.Bytes())
	}
}

// TestVCallNames pins each vcall's source name, which IR text prints: the
// typed vocabulary must read exactly as the name strings it replaced.
func TestVCallNames(t *testing.T) {
	want := []string{
		"get_hdr", "hdr_field", "set_field", "payload_len", "payload_byte",
		"checksum_pkt", "cksum_update", "flow_key", "map_lookup", "map_get",
		"map_put", "map_delete", "map_incr", "lpm_lookup", "arr_read",
		"arr_write", "sketch_add", "sketch_read", "dpi_scan", "crypto",
		"hash", "now", "random", "emit",
	}
	if len(want) != int(NumVCalls)-1 {
		t.Fatalf("vocabulary has %d vcalls, want %d", NumVCalls-1, len(want))
	}
	for i, name := range want {
		if vc := VCall(i + 1); !vc.Valid() || vc.String() != name {
			t.Errorf("VCall(%d) = %q (valid %v), want %q", i+1, vc, vc.Valid(), name)
		}
	}
	for _, vc := range []VCall{0, NumVCalls} {
		if vc.Valid() {
			t.Errorf("%s is valid", vc)
		}
	}
}
