package cir

import (
	"fmt"
	"sort"
	"strings"
)

// NodeKind classifies dataflow-graph nodes after pattern matching. The
// paper's example is recognizing header-parse regions spanning multiple
// branches and mapping them to match/action engines as a whole (§3.3).
type NodeKind uint8

// Dataflow node kinds.
const (
	NodeCompute NodeKind = iota
	NodeParse
	NodeChecksum
	NodeCrypto
	NodeTableOp
	NodePayloadLoop
	NodeEmit
)

// kindRank orders node kinds by classification priority: a node takes the
// highest-ranked kind among its vcalls' (VCallInfo.Node).
var kindRank = [...]int{NodeCompute: 0, NodeEmit: 1, NodeParse: 2, NodeTableOp: 3,
	NodeCrypto: 4, NodeChecksum: 5, NodePayloadLoop: 6}

func (k NodeKind) String() string {
	switch k {
	case NodeCompute:
		return "compute"
	case NodeParse:
		return "parse"
	case NodeChecksum:
		return "checksum"
	case NodeCrypto:
		return "crypto"
	case NodeTableOp:
		return "tableop"
	case NodePayloadLoop:
		return "payloadloop"
	case NodeEmit:
		return "emit"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// DefaultLoopTrip is the trip-count estimate for loops whose bound the
// pattern matcher cannot derive.
const DefaultLoopTrip = 16

// Node is one dataflow code block: one or more basic blocks that are mapped
// to an LNIC compute unit as a unit.
type Node struct {
	ID     int
	Kind   NodeKind
	Blocks []int // constituent basic-block indices, program order

	// ClassCount tallies non-vcall instructions by pricing class for one
	// execution of the node body.
	ClassCount map[Class]int
	// VCalls lists the vcall instructions in the node body.
	VCalls []Instr
	// States lists state objects the node references (sorted, unique).
	States []string
	// Accel is the accelerator class able to execute this node's
	// accelerable vcalls natively ("" if none).
	Accel string

	// Loop marks nodes formed by collapsing a CFG cycle; their body repeats.
	Loop bool
	// PayloadScaled marks nodes whose repetition or vcall cost grows with
	// payload size (DPI scans, per-byte loops, full checksums).
	PayloadScaled bool
	// Trip is the estimated iterations per packet for Loop nodes that are
	// not payload-scaled.
	Trip int
}

// Edge is a directed dataflow edge annotated with a traversal probability.
type Edge struct {
	From, To int
	// Prob is the probability the edge is taken given From executes.
	// Defaults to a uniform split; profiling or symbolic analysis refines it.
	Prob float64
}

// Graph is the NF dataflow graph: a DAG of code blocks (§3.3). Cycles in
// the CFG are collapsed into loop nodes so the mapper's pipeline-order
// constraints are well defined.
type Graph struct {
	Prog  *Program
	Nodes []Node
	Edges []Edge
	Entry int
}

// BuildGraph extracts the dataflow graph from a program:
//
//  1. Strongly connected components of the CFG collapse into loop nodes
//     (Tarjan), making the graph acyclic.
//  2. Single-entry/single-exit chains merge, unless merging would blur a
//     mapping decision: nodes keep at most one accelerable vcall class and
//     at most one state object, so accelerator placement and per-state
//     memory placement stay independent.
//  3. Each node is classified by its dominant feature (parse region,
//     checksum, table operation, payload loop, emit, generic compute).
func BuildGraph(p *Program) (*Graph, error) {
	if err := Verify(p); err != nil {
		return nil, err
	}
	sccs := tarjan(p)
	// Map block -> component, preserve topological order of components
	// (tarjan emits reverse topological order).
	comp := make([]int, len(p.Blocks))
	for ci, blocks := range sccs {
		for _, b := range blocks {
			comp[b] = ci
		}
	}
	g := &Graph{Prog: p}
	g.Nodes = make([]Node, len(sccs))
	for ci, blocks := range sccs {
		sort.Ints(blocks)
		n := &g.Nodes[ci]
		n.ID = ci
		n.Blocks = blocks
		n.Loop = len(blocks) > 1 || selfLoop(p, blocks[0])
	}
	seen := map[[2]int]bool{}
	for bi := range p.Blocks {
		for _, s := range p.Successors(bi) {
			from, to := comp[bi], comp[s]
			if from == to {
				continue
			}
			k := [2]int{from, to}
			if !seen[k] {
				seen[k] = true
				g.Edges = append(g.Edges, Edge{From: from, To: to})
			}
		}
	}
	g.Entry = comp[0]
	g.summarize()
	g.mergeChains()
	g.classify()
	g.defaultProbs()
	return g, nil
}

func selfLoop(p *Program, b int) bool {
	for _, s := range p.Successors(b) {
		if s == b {
			return true
		}
	}
	return false
}

// tarjan returns SCCs of the CFG in reverse topological order; we reverse
// to get topological order (entry's component first among its chain).
func tarjan(p *Program) [][]int {
	n := len(p.Blocks)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var out [][]int
	next := 0
	var strong func(v int)
	strong = func(v int) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range p.Successors(v) {
			if index[w] == -1 {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			out = append(out, scc)
		}
	}
	for v := 0; v < n; v++ {
		if index[v] == -1 {
			strong(v)
		}
	}
	// reverse: Tarjan emits reverse-topological component order.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

func (g *Graph) summarize() {
	for i := range g.Nodes {
		n := &g.Nodes[i]
		n.ClassCount = map[Class]int{}
		states := map[string]bool{}
		scans := false // reads payload bytes one by one
		for _, bi := range n.Blocks {
			for _, in := range g.Prog.Blocks[bi].Instrs {
				if in.Op == OpVCall {
					n.VCalls = append(n.VCalls, in)
					info := VCalls[in.Callee]
					if in.State != "" {
						states[in.State] = true
					}
					n.PayloadScaled = n.PayloadScaled || info.PayloadScaled
					scans = scans || in.Callee == VCPayloadByte
					if info.Accelerable != "" {
						n.Accel = info.Accelerable
					}
					continue
				}
				n.ClassCount[ClassOf(in.Op)]++
			}
		}
		n.States = sortedKeys(states)
		if n.Loop {
			if n.PayloadScaled || scans {
				n.PayloadScaled = true
			} else {
				n.Trip = DefaultLoopTrip
			}
		}
	}
}

// mergeChains repeatedly fuses edges A→B where A has out-degree 1, B has
// in-degree 1, neither side breaks mapping independence, and the merge
// cannot create a cycle (guaranteed for such chains in a DAG).
func (g *Graph) mergeChains() {
	for {
		merged := false
		outDeg := map[int]int{}
		inDeg := map[int]int{}
		for _, e := range g.Edges {
			outDeg[e.From]++
			inDeg[e.To]++
		}
		for _, e := range g.Edges {
			a, b := e.From, e.To
			if outDeg[a] != 1 || inDeg[b] != 1 {
				continue
			}
			if !g.canMerge(a, b) {
				continue
			}
			g.fuse(a, b)
			merged = true
			break
		}
		if !merged {
			return
		}
	}
}

func (g *Graph) canMerge(a, b int) bool {
	na, nb := &g.Nodes[a], &g.Nodes[b]
	// Loop nodes keep their identity: their costs scale differently.
	if na.Loop != nb.Loop {
		return false
	}
	if na.Accel != "" && nb.Accel != "" && na.Accel != nb.Accel {
		return false
	}
	states := map[string]bool{}
	for _, s := range na.States {
		states[s] = true
	}
	for _, s := range nb.States {
		states[s] = true
	}
	return len(states) <= 1
}

func (g *Graph) fuse(a, b int) {
	na, nb := &g.Nodes[a], &g.Nodes[b]
	na.Blocks = append(na.Blocks, nb.Blocks...)
	sort.Ints(na.Blocks)
	for c, n := range nb.ClassCount {
		na.ClassCount[c] += n
	}
	na.VCalls = append(na.VCalls, nb.VCalls...)
	states := map[string]bool{}
	for _, s := range na.States {
		states[s] = true
	}
	for _, s := range nb.States {
		states[s] = true
	}
	na.States = sortedKeys(states)
	if na.Accel == "" {
		na.Accel = nb.Accel
	}
	na.PayloadScaled = na.PayloadScaled || nb.PayloadScaled
	if nb.Trip > na.Trip {
		na.Trip = nb.Trip
	}
	// Rewire: drop a→b, redirect b's out-edges to come from a, delete b.
	var edges []Edge
	for _, e := range g.Edges {
		switch {
		case e.From == a && e.To == b:
			continue
		case e.From == b:
			edges = append(edges, Edge{From: a, To: e.To, Prob: e.Prob})
		case e.To == b:
			// unreachable: b had in-degree 1 (the a→b edge)
			edges = append(edges, Edge{From: e.From, To: a, Prob: e.Prob})
		default:
			edges = append(edges, e)
		}
	}
	g.Edges = edges
	g.removeNode(b)
}

func (g *Graph) removeNode(idx int) {
	g.Nodes = append(g.Nodes[:idx], g.Nodes[idx+1:]...)
	for i := range g.Nodes {
		g.Nodes[i].ID = i
	}
	remap := func(v int) int {
		if v > idx {
			return v - 1
		}
		return v
	}
	for i := range g.Edges {
		g.Edges[i].From = remap(g.Edges[i].From)
		g.Edges[i].To = remap(g.Edges[i].To)
	}
	g.Entry = remap(g.Entry)
}

func (g *Graph) classify() {
	for i := range g.Nodes {
		n := &g.Nodes[i]
		n.Kind = NodeCompute
		if n.Loop && n.PayloadScaled {
			// Per-byte payload work (explicit loops or DPI scans) needs a
			// general-purpose core; match-action stages cannot host it.
			n.Kind = NodePayloadLoop
		}
		for _, vc := range n.VCalls {
			if k := VCalls[vc.Callee].Node; kindRank[k] > kindRank[n.Kind] {
				n.Kind = k
			}
		}
	}
}

// defaultProbs splits each node's outgoing probability uniformly.
func (g *Graph) defaultProbs() {
	outDeg := map[int]int{}
	for _, e := range g.Edges {
		outDeg[e.From]++
	}
	for i := range g.Edges {
		g.Edges[i].Prob = 1.0 / float64(outDeg[g.Edges[i].From])
	}
}

// ExpectedVisits returns, per node, the expected executions per packet given
// the edge probabilities: entry executes once, and visits propagate through
// the DAG.
func (g *Graph) ExpectedVisits() []float64 {
	order := g.topoOrder()
	visits := make([]float64, len(g.Nodes))
	visits[g.Entry] = 1
	for _, n := range order {
		for _, e := range g.Edges {
			if e.From == n {
				visits[e.To] += visits[n] * e.Prob
			}
		}
	}
	return visits
}

// topoOrder returns node indices in topological order. The graph is acyclic
// by construction.
func (g *Graph) topoOrder() []int {
	inDeg := make([]int, len(g.Nodes))
	for _, e := range g.Edges {
		inDeg[e.To]++
	}
	// order doubles as the FIFO queue: nodes are appended when they become
	// ready and visited in the order they were appended.
	order := make([]int, 0, len(g.Nodes))
	for i := range g.Nodes {
		if inDeg[i] == 0 {
			order = append(order, i)
		}
	}
	for head := 0; head < len(order); head++ {
		n := order[head]
		for _, e := range g.Edges {
			if e.From == n {
				inDeg[e.To]--
				if inDeg[e.To] == 0 {
					order = append(order, e.To)
				}
			}
		}
	}
	return order
}

// String renders the graph for debugging.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dataflow %s: %d nodes, %d edges, entry n%d\n", g.Prog.Name, len(g.Nodes), len(g.Edges), g.Entry)
	for _, n := range g.Nodes {
		fmt.Fprintf(&b, "  n%d %s blocks=%v", n.ID, n.Kind, n.Blocks)
		if len(n.States) > 0 {
			fmt.Fprintf(&b, " states=%v", n.States)
		}
		if n.Accel != "" {
			fmt.Fprintf(&b, " accel=%s", n.Accel)
		}
		if n.Loop {
			fmt.Fprintf(&b, " loop(trip=%d,payload=%v)", n.Trip, n.PayloadScaled)
		}
		fmt.Fprintln(&b)
	}
	for _, e := range g.Edges {
		fmt.Fprintf(&b, "  n%d -> n%d (p=%.2f)\n", e.From, e.To, e.Prob)
	}
	return b.String()
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
