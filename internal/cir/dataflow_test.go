package cir

import (
	"math"
	"testing"
)

// buildDiamond builds: entry → (parse) branch → cksum | table → join(emit).
func buildDiamond(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("diamond")
	st := b.DeclareState(StateObj{Name: "tbl", Kind: StateMap, KeySize: 13, ValueSize: 8, Capacity: 1024})
	pr := b.Const(ProtoIPv4)
	b.VCall(VCGetHdr, "", pr)
	fld := b.Const(FieldProto)
	v := b.VCall(VCHdrField, "", pr, fld)
	six := b.Const(6)
	cond := b.Bin(OpEq, v, six)
	left := b.NewBlock("cksum")
	right := b.NewBlock("table")
	join := b.NewBlock("join")
	b.Branch(cond, left, right)

	b.SetBlock(left)
	tcp := b.Const(ProtoTCP)
	b.VCall(VCChecksum, "", tcp)
	b.Jump(join)

	b.SetBlock(right)
	k := b.VCall(VCFlowKey, "")
	b.VCall(VCMapLookup, st, k)
	b.Jump(join)

	b.SetBlock(join)
	port := b.Const(0)
	b.VCallVoid(VCEmit, "", port)
	b.ReturnConst(VerdictPass)
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuildGraphDiamond(t *testing.T) {
	p := buildDiamond(t)
	g, err := BuildGraph(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != 4 {
		t.Fatalf("nodes = %d, want 4 (parse, cksum, table, emit):\n%s", len(g.Nodes), g)
	}
	kinds := map[NodeKind]int{}
	for _, n := range g.Nodes {
		kinds[n.Kind]++
	}
	for _, k := range []NodeKind{NodeParse, NodeChecksum, NodeTableOp, NodeEmit} {
		if kinds[k] != 1 {
			t.Errorf("kind %s count = %d, want 1\n%s", k, kinds[k], g)
		}
	}
	// The entry node must be the parse node.
	if g.Nodes[g.Entry].Kind != NodeParse {
		t.Errorf("entry kind = %s, want parse", g.Nodes[g.Entry].Kind)
	}
}

func TestGraphIsDAGWithLoop(t *testing.T) {
	p := buildLoop(t)
	g, err := BuildGraph(p)
	if err != nil {
		t.Fatal(err)
	}
	// The loop (head+body) must collapse into one loop node.
	var loops int
	for _, n := range g.Nodes {
		if n.Loop {
			loops++
			if n.PayloadScaled {
				t.Error("counted loop should not be payload scaled")
			}
			if n.Trip != DefaultLoopTrip {
				t.Errorf("trip = %d, want default %d", n.Trip, DefaultLoopTrip)
			}
		}
	}
	if loops != 1 {
		t.Fatalf("loop nodes = %d, want 1:\n%s", loops, g)
	}
	// Topological order must cover every node (acyclic).
	if got := len(g.topoOrder()); got != len(g.Nodes) {
		t.Errorf("topo order covers %d of %d nodes — graph has a cycle", got, len(g.Nodes))
	}
}

func TestPayloadLoopClassification(t *testing.T) {
	b := NewBuilder("scan")
	n := b.VCall(VCPayloadLen, "")
	zero := b.Const(0)
	i := copyReg(b, zero)
	head := b.NewBlock("head")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Jump(head)
	b.SetBlock(head)
	c := b.Bin(OpLt, i, n)
	b.Branch(c, body, exit)
	b.SetBlock(body)
	b.VCall(VCPayloadByte, "", i)
	one := b.Const(1)
	b.Bin(OpAdd, i, one)
	b.Jump(head)
	b.SetBlock(exit)
	b.ReturnConst(VerdictPass)
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGraph(p)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, nd := range g.Nodes {
		if nd.Kind == NodePayloadLoop {
			found = true
			if !nd.PayloadScaled {
				t.Error("payload loop not marked payload scaled")
			}
		}
	}
	if !found {
		t.Errorf("no payload-loop node:\n%s", g)
	}
}

func TestChainMergeRespectsState(t *testing.T) {
	// Two table ops on different states in sequence must stay separate nodes
	// so memory placement can differ per state.
	b := NewBuilder("twostate")
	s1 := b.DeclareState(StateObj{Name: "a", Kind: StateMap, KeySize: 4, ValueSize: 4, Capacity: 10})
	s2 := b.DeclareState(StateObj{Name: "b", Kind: StateMap, KeySize: 4, ValueSize: 4, Capacity: 10})
	k := b.VCall(VCFlowKey, "")
	b.VCall(VCMapLookup, s1, k)
	mid := b.NewBlock("mid")
	b.Jump(mid)
	b.SetBlock(mid)
	b.VCall(VCMapLookup, s2, k)
	b.ReturnConst(VerdictPass)
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGraph(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != 2 {
		t.Fatalf("nodes = %d, want 2 (one per state):\n%s", len(g.Nodes), g)
	}
}

func TestChainMergeFusesCompute(t *testing.T) {
	// Straight-line compute split across blocks should merge into one node.
	b := NewBuilder("straight")
	x := b.Const(1)
	n2 := b.NewBlock("n2")
	b.Jump(n2)
	b.SetBlock(n2)
	y := b.Const(2)
	b.Bin(OpAdd, x, y)
	n3 := b.NewBlock("n3")
	b.Jump(n3)
	b.SetBlock(n3)
	b.ReturnConst(VerdictPass)
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGraph(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != 1 {
		t.Fatalf("nodes = %d, want 1:\n%s", len(g.Nodes), g)
	}
	if g.Nodes[0].ClassCount[ClassALU] != 4 { // 3 consts + 1 add
		t.Errorf("ALU count = %d, want 4", g.Nodes[0].ClassCount[ClassALU])
	}
}

func TestExpectedVisits(t *testing.T) {
	p := buildDiamond(t)
	g, err := BuildGraph(p)
	if err != nil {
		t.Fatal(err)
	}
	// Set 80/20 branch split.
	var cksumID, tableID, emitID int
	for _, n := range g.Nodes {
		switch n.Kind {
		case NodeChecksum:
			cksumID = n.ID
		case NodeTableOp:
			tableID = n.ID
		case NodeEmit:
			emitID = n.ID
		}
	}
	set := 0
	for i := range g.Edges {
		if e := &g.Edges[i]; e.From == g.Entry && e.To == cksumID {
			e.Prob = 0.8
			set++
		} else if e.From == g.Entry && e.To == tableID {
			e.Prob = 0.2
			set++
		}
	}
	if set != 2 {
		t.Fatalf("set %d of the entry's two branch edges", set)
	}
	v := g.ExpectedVisits()
	if math.Abs(v[cksumID]-0.8) > 1e-9 || math.Abs(v[tableID]-0.2) > 1e-9 {
		t.Errorf("visits cksum=%.2f table=%.2f", v[cksumID], v[tableID])
	}
	if math.Abs(v[emitID]-1.0) > 1e-9 {
		t.Errorf("join visits = %.2f, want 1.0", v[emitID])
	}
}

func TestGraphStringSmoke(t *testing.T) {
	p := buildDiamond(t)
	g, err := BuildGraph(p)
	if err != nil {
		t.Fatal(err)
	}
	if s := g.String(); len(s) == 0 {
		t.Error("empty graph string")
	}
}
