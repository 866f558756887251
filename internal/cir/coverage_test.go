package cir

import (
	"reflect"
	"strings"
	"testing"
)

// TestOptimizeFoldsEveryIntegerOp sweeps tryFold's whole menu: each
// foldable op over constant operands must optimize to the same verdict the
// unoptimized program computes, and div/mod by a constant zero must survive
// unfolded so the runtime fault is preserved.
func TestOptimizeFoldsEveryIntegerOp(t *testing.T) {
	cases := []struct {
		op   Op
		x, y uint64
	}{
		{OpAdd, 7, 3}, {OpSub, 3, 7}, {OpMul, 6, 7}, {OpDiv, 42, 5},
		{OpMod, 42, 5}, {OpAnd, 0xf0, 0x3c}, {OpOr, 0xf0, 0x0c},
		{OpXor, 0xff, 0x0f}, {OpShl, 3, 68}, {OpShr, 1 << 40, 104},
		{OpEq, 4, 4}, {OpNe, 4, 4}, {OpLt, 2, 9}, {OpLe, 9, 9},
		{OpGt, 2, 9}, {OpGe, 9, 9},
	}
	for _, c := range cases {
		b := NewBuilder("fold")
		r := b.Bin(c.op, b.Const(c.x), b.Const(c.y))
		b.Return(r)
		p := b.MustProgram()
		want, err := NewInterp(p).Run(&stubEnv{}, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.op, err)
		}
		opt := p.Clone()
		if Optimize(opt) == 0 {
			t.Errorf("%s(%d,%d) did not fold", c.op, c.x, c.y)
		}
		got, err := NewInterp(opt).Run(&stubEnv{}, nil)
		if err != nil {
			t.Fatalf("%s optimized: %v", c.op, err)
		}
		if got != want {
			t.Errorf("%s(%d,%d): folded %d, want %d", c.op, c.x, c.y, got, want)
		}
	}

	// OpNot folds; an op with a non-constant operand must not.
	b := NewBuilder("notfold")
	n := b.Not(b.Const(0))
	v := b.VCall(VCPayloadLen, "")
	r := b.Bin(OpAdd, n, v)
	b.Return(r)
	p := b.MustProgram()
	opt := p.Clone()
	Optimize(opt)
	for _, blk := range opt.Blocks {
		for _, in := range blk.Instrs {
			if in.Op == OpNot {
				t.Error("constant OpNot survived folding")
			}
			if in.Op == OpAdd && in.Args == nil {
				t.Error("vcall-fed add was folded")
			}
		}
	}
	runBoth(t, p)

	// Division and modulo by constant zero stay put.
	for _, op := range []Op{OpDiv, OpMod} {
		b := NewBuilder("dbz")
		r := b.Bin(op, b.Const(5), b.Const(0))
		b.Return(r)
		p := b.MustProgram()
		opt := p.Clone()
		Optimize(opt)
		if _, err := NewInterp(opt).Run(&stubEnv{}, nil); err == nil {
			t.Errorf("%s by constant zero folded away the fault", op)
		}
	}
}

// TestBuilderMisuse drives every latched-diagnostic path: misuse must not
// panic, the first mistake wins, and Program reports it.
func TestBuilderMisuse(t *testing.T) {
	t.Run("set block out of range", func(t *testing.T) {
		b := NewBuilder("x")
		b.SetBlock(5)
		b.ReturnConst(0)
		if _, err := b.Program(); err == nil || !strings.Contains(err.Error(), "SetBlock") {
			t.Errorf("err = %v, want SetBlock diagnostic", err)
		}
	})
	t.Run("emit into sealed block", func(t *testing.T) {
		b := NewBuilder("x")
		b.ReturnConst(0)
		b.Const(1)
		if err := b.err; err == nil || !strings.Contains(err.Error(), "sealed block") {
			t.Errorf("latched err = %v, want sealed-block diagnostic", err)
		}
		if _, err := b.Program(); err == nil {
			t.Error("Program accepted a builder with latched misuse")
		}
	})
	t.Run("double seal", func(t *testing.T) {
		b := NewBuilder("x")
		b.ReturnConst(0)
		b.Jump(0)
		if _, err := b.Program(); err == nil || !strings.Contains(err.Error(), "already sealed") {
			t.Errorf("err = %v, want already-sealed diagnostic", err)
		}
	})
	t.Run("unknown vcall", func(t *testing.T) {
		b := NewBuilder("x")
		b.VCall(NumVCalls, "")
		b.VCallVoid(NumVCalls+1, "")
		b.ReturnConst(0)
		if _, err := b.Program(); err == nil || !strings.Contains(err.Error(), `unknown vcall "vcall(25)"`) {
			t.Errorf("err = %v, want first unknown-vcall diagnostic", err)
		}
	})
	t.Run("unsealed block", func(t *testing.T) {
		b := NewBuilder("x")
		mid := b.NewBlock("mid")
		b.Jump(mid)
		if _, err := b.Program(); err == nil || !strings.Contains(err.Error(), "no terminator") {
			t.Errorf("err = %v, want no-terminator diagnostic", err)
		}
	})
	t.Run("must program panics", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("MustProgram did not panic on a malformed program")
			}
		}()
		b := NewBuilder("x")
		b.SetBlock(9)
		b.ReturnConst(0)
		b.MustProgram()
	})
}

// TestBuilderSlotsAndPatterns covers the front-end conveniences: FreshReg
// mutable slots assigned through CopyInto, DeclarePatterns feeding a DPI
// vcall — through both engines.
func TestBuilderSlotsAndPatterns(t *testing.T) {
	b := NewBuilder("slots")
	pats := b.DeclarePatterns("sigs", []string{"evil", "worse"})
	slot := b.FreshReg()
	b.CopyInto(slot, b.Const(40))
	two := b.Const(2)
	sum := b.Bin(OpAdd, slot, two)
	b.VCallVoid(VCDPIScan, pats)
	b.Return(sum)
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.Patterns["sigs"]); got != 2 {
		t.Fatalf("declared patterns = %d, want 2", got)
	}
	iv, err := NewInterp(p).Run(&stubEnv{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cv, err := runCompiled(t, p, &stubEnv{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if iv != 42 || cv != 42 {
		t.Errorf("slot arithmetic: interp %d, compiled %d, want 42", iv, cv)
	}
}

// TestStringMethods pins the debug renderings, including the out-of-range
// fallbacks — they show up in verifier diagnostics and fuzz failure dumps.
func TestStringMethods(t *testing.T) {
	classes := map[Class]string{
		ClassNop: "nop", ClassALU: "alu", ClassMul: "mul", ClassDiv: "div",
		ClassFloat: "float", ClassMem: "mem", ClassVCall: "vcall", Class(99): "class(99)",
	}
	for c, want := range classes {
		if got := c.String(); got != want {
			t.Errorf("Class(%d).String() = %q, want %q", uint8(c), got, want)
		}
	}
	kinds := map[StateKind]string{
		StateMap: "map", StateLPM: "lpm", StateArray: "array",
		StateSketch: "sketch", StatePattern: "pattern", StateKind(42): "state(42)",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("StateKind(%d).String() = %q, want %q", uint8(k), got, want)
		}
	}
	terms := map[string]Terminator{
		"jump b3":             {Kind: TermJump, Then: 3},
		"branch r1 ? b2 : b4": {Kind: TermBranch, Cond: 1, Then: 2, Else: 4},
		"return":              {Kind: TermReturn, Ret: NoReg},
		"return r7":           {Kind: TermReturn, Ret: 7},
		"term(?)":             {Kind: TermKind(9)},
	}
	for want, term := range terms {
		if got := term.String(); got != want {
			t.Errorf("Terminator.String() = %q, want %q", got, want)
		}
	}
	for k, want := range map[NodeKind]string{
		NodeCompute: "compute", NodeParse: "parse", NodeChecksum: "checksum",
		NodeCrypto: "crypto", NodeTableOp: "tableop", NodePayloadLoop: "payloadloop",
		NodeEmit: "emit",
	} {
		if got := k.String(); got != want {
			t.Errorf("NodeKind.String() = %q, want %q", got, want)
		}
	}

	p := buildDiamond(t)
	text := p.String()
	for _, want := range []string{"program ", "state ", "return"} {
		if !strings.Contains(text, want) {
			t.Errorf("Program.String() missing %q:\n%s", want, text)
		}
	}
	g, err := BuildGraph(p)
	if err != nil {
		t.Fatal(err)
	}
	if s := g.String(); !strings.Contains(s, "->") {
		t.Errorf("Graph.String() has no edges:\n%s", s)
	}
}

// Clone returns a deep copy of the graph sharing only the immutable
// Program. Annotated graphs share their nodes (symexec.Annotator), so only
// tests deep-copy a graph.
func (g *Graph) Clone() *Graph {
	out := &Graph{Prog: g.Prog, Entry: g.Entry}
	out.Nodes = make([]Node, len(g.Nodes))
	for i := range g.Nodes {
		n := g.Nodes[i] // value copy of scalar fields
		n.Blocks = append([]int(nil), g.Nodes[i].Blocks...)
		n.VCalls = append([]Instr(nil), g.Nodes[i].VCalls...)
		n.States = append([]string(nil), g.Nodes[i].States...)
		if g.Nodes[i].ClassCount != nil {
			n.ClassCount = make(map[Class]int, len(g.Nodes[i].ClassCount))
			for k, v := range g.Nodes[i].ClassCount {
				n.ClassCount[k] = v
			}
		}
		out.Nodes[i] = n
	}
	out.Edges = append([]Edge(nil), g.Edges...)
	return out
}

// TestGraphCloneAndSuccs: Clone must be deep for all annotation-mutable
// fields, and copy the edge list, successors included.
func TestGraphCloneAndSuccs(t *testing.T) {
	g, err := BuildGraph(buildDiamond(t))
	if err != nil {
		t.Fatal(err)
	}
	c := g.Clone()
	// Clone normalizes empty slices to nil, so compare shape rather than
	// reflect.DeepEqual on whole structs.
	if len(c.Nodes) != len(g.Nodes) || len(c.Edges) != len(g.Edges) || c.Entry != g.Entry {
		t.Fatalf("Clone shape differs: %d/%d nodes, %d/%d edges",
			len(c.Nodes), len(g.Nodes), len(c.Edges), len(g.Edges))
	}
	if !reflect.DeepEqual(c.Edges, g.Edges) {
		t.Fatal("Clone edge list differs from the original")
	}
	if len(c.Edges) == 0 {
		t.Fatal("diamond graph has no edges")
	}
	c.Edges[0].Prob = 0.123
	if g.Edges[0].Prob == 0.123 {
		t.Error("edge mutation leaked into the original")
	}
	for i := range c.Nodes {
		if len(c.Nodes[i].Blocks) > 0 {
			c.Nodes[i].Blocks[0] = 999
			if g.Nodes[i].Blocks[0] == 999 {
				t.Error("node block-list mutation leaked into the original")
			}
			break
		}
	}
}
