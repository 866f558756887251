// Package symexec enumerates the behaviours of a lowered NF, the paper's
// §3.5 alternative to trace replay: "Clara could leverage symbolic execution
// to comprehensively enumerate all NF behaviors, and identify the packet
// types that would exercise each behavior."
//
// Rather than a full SMT-backed explorer, it drives the compiled CIR over
// a finite attribute lattice — protocol, TCP SYN, flow-state presence, DPI
// match, heavy-hitter status, meter conformance, payload size — and records,
// per distinct execution path, the blocks executed, the vcalls issued and
// the verdict. Classes are deduplicated by path; each carries the attribute
// valuation that exercises it, and can be weighted by a workload profile to
// annotate dataflow-graph edge probabilities. NF state spaces are bounded,
// and every branch in the corpus discriminates on one of these attributes,
// so the enumeration is exhaustive for the behaviours the cost model prices.
package symexec

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"clara/internal/budget"
	"clara/internal/cir"
	"clara/internal/mapper"
	"clara/internal/obs"
)

// Attrs is one point in the attribute lattice.
type Attrs struct {
	// Proto is "tcp", "udp" or "icmp".
	Proto string
	// SYN marks the TCP SYN flag (meaningful only for Proto == "tcp").
	SYN bool
	// FlowSeen: stateful tables already hold this packet's flow.
	FlowSeen bool
	// DPIMatch: the payload contains a scanned-for pattern.
	DPIMatch bool
	// Heavy: the flow is above heavy-hitter thresholds / out of meter
	// tokens.
	Heavy bool
	// PayloadLen drives payload-scaled work during enumeration.
	PayloadLen int
}

func (a Attrs) String() string {
	var buf [5]string
	parts := append(buf[:0], a.Proto)
	if a.SYN {
		parts = append(parts, "syn")
	}
	if a.FlowSeen {
		parts = append(parts, "seen")
	} else {
		parts = append(parts, "new")
	}
	if a.DPIMatch {
		parts = append(parts, "dpimatch")
	}
	if a.Heavy {
		parts = append(parts, "heavy")
	}
	return strings.Join(parts, "+")
}

// Class is one distinct NF behaviour: a path through the program and the
// attribute valuation that exercises it.
type Class struct {
	Attrs Attrs
	// AllAttrs lists every lattice valuation that takes this path; class
	// probability is the sum of their masses.
	AllAttrs []Attrs
	Verdict  uint64
	// BlockTrace is the sequence of basic blocks executed.
	BlockTrace []int
	// VCalls tallies vcall invocations by callee.
	VCalls map[cir.VCall]int
}

// Name renders a stable identifier for the class.
func (c *Class) Name() string { return c.Attrs.String() }

// EnumerateContext runs the program across the attribute lattice and
// returns the distinct behaviour classes, ordered deterministically. The
// per-class CIR step cap and the lattice-point cap come from the
// budget.Limits carried on ctx (safe defaults otherwise). On cancellation it
// returns a *budget.CanceledError wrapping ctx.Err(); on a tripped budget a
// *budget.ExceededError whose Partial field holds the classes enumerated so
// far — an unbounded NF loop stops the enumeration promptly instead of
// wedging the caller.
func EnumerateContext(ctx context.Context, prog *cir.Program) ([]Class, error) {
	lim := budget.From(ctx)
	maxSteps := int(lim.SymExecStepLimit())
	protos := []string{"tcp", "udp", "icmp"}
	bools := []bool{false, true}
	payload := 256

	type key struct {
		verdict uint64
		trace   string
	}
	seen := map[key]int{}
	var out []Class
	paths := int64(0)
	// Step counting runs only when an observer asked for it: the meter
	// counts every instruction into steps.
	m := obs.From(ctx)
	usage := budget.UsageFrom(ctx)
	steps := int64(0)
	var meter *cir.Meter
	if m != nil || usage != nil {
		meter = &cir.Meter{Steps: &steps}
		defer func() {
			usage.AddSymExecPaths(paths)
			usage.AddSymExecSteps(steps)
			m.Counter("clara_symexec_paths_total").Add(paths)
			m.Counter("clara_symexec_steps_total").Add(steps)
			m.Counter("clara_symexec_classes_total").Add(int64(len(out)))
		}()
	}
	finish := func(classes []Class) []Class {
		sort.Slice(classes, func(i, j int) bool { return classes[i].Name() < classes[j].Name() })
		return classes
	}
	// Compile once and reuse the engine across every lattice point — the
	// enumeration runs the same program dozens of times. A program the
	// engine cannot execute is refused here with the compile error.
	comp, err := cir.Compile(prog)
	if err != nil {
		return nil, fmt.Errorf("symexec: %w", err)
	}
	for _, proto := range protos {
		for _, syn := range bools {
			if syn && proto != "tcp" {
				continue
			}
			for _, flowSeen := range bools {
				for _, dpi := range bools {
					for _, heavy := range bools {
						if err := ctx.Err(); err != nil {
							return nil, &budget.CanceledError{
								Stage: "enumerate", NF: prog.Name, Err: err,
								Partial: finish(out),
							}
						}
						paths++
						if lim.SymExecPaths > 0 && paths > lim.SymExecPaths {
							return nil, &budget.ExceededError{
								Resource: "symexec-paths", Limit: lim.SymExecPaths,
								Stage: "enumerate", NF: prog.Name, Partial: finish(out),
							}
						}
						a := Attrs{Proto: proto, SYN: syn, FlowSeen: flowSeen,
							DPIMatch: dpi, Heavy: heavy, PayloadLen: payload}
						cl, err := runClass(ctx, comp, a, maxSteps, meter)
						if err != nil {
							if errors.Is(err, cir.ErrStepLimit) {
								return nil, &budget.ExceededError{
									Resource: "symexec-steps", Limit: int64(maxSteps),
									Stage: "enumerate", NF: prog.Name, Partial: finish(out),
								}
							}
							if cerr := ctx.Err(); cerr != nil {
								return nil, &budget.CanceledError{
									Stage: "enumerate", NF: prog.Name, Err: cerr,
									Partial: finish(out),
								}
							}
							return nil, fmt.Errorf("symexec: attrs %s: %w", a, err)
						}
						k := key{cl.Verdict, traceKey(cl.BlockTrace)}
						if idx, dup := seen[k]; dup {
							// Keep the simplest attribute valuation (fewest
							// set flags) as the representative, but remember
							// every valuation for probability accounting.
							out[idx].AllAttrs = append(out[idx].AllAttrs, a)
							if flagCount(a) < flagCount(out[idx].Attrs) {
								out[idx].Attrs = a
							}
							continue
						}
						cl.AllAttrs = []Attrs{a}
						seen[k] = len(out)
						out = append(out, *cl)
					}
				}
			}
		}
	}
	return finish(out), nil
}

func flagCount(a Attrs) int {
	n := 0
	for _, b := range []bool{a.SYN, a.FlowSeen, a.DPIMatch, a.Heavy} {
		if b {
			n++
		}
	}
	return n
}

func traceKey(blocks []int) string {
	var b strings.Builder
	for _, blk := range blocks {
		fmt.Fprintf(&b, "%d,", blk)
	}
	return b.String()
}

// runClass executes the compiled program once under the attribute
// valuation. meter, when non-nil, counts the instructions executed (step
// accounting).
func runClass(ctx context.Context, comp *cir.Compiled, a Attrs, maxSteps int, meter *cir.Meter) (*Class, error) {
	cl := &Class{Attrs: a, VCalls: map[cir.VCall]int{}}
	env := NewEnv(a)
	hooks := &cir.Hooks{
		Meter: meter,
		OnBlock: func(b int) {
			// Bound the recorded trace; loops repeat blocks.
			if len(cl.BlockTrace) < 4096 {
				cl.BlockTrace = append(cl.BlockTrace, b)
			}
		},
		MaxSteps: maxSteps,
		Ctx:      ctx,
	}
	env.onVCall = func(vc cir.VCall) { cl.VCalls[vc]++ }
	v, err := comp.Run(env, hooks)
	if err != nil {
		return nil, err
	}
	cl.Verdict = v
	return cl, nil
}

// Env supplies attribute-driven vcall results. It implements cir.Env; the
// predictor wraps it to attach expected costs to the same semantics.
type Env struct {
	a       Attrs
	onVCall func(cir.VCall)
	counter uint64
}

// NewEnv builds a symbolic environment for one attribute valuation.
func NewEnv(a Attrs) *Env { return &Env{a: a} }

// Reset makes e answer for a exactly as NewEnv(a) would.
func (e *Env) Reset(a Attrs) { *e = Env{a: a} }

// Attrs returns the valuation the environment answers for.
func (e *Env) Attrs() Attrs { return e.a }

// VCall implements cir.Env.
func (e *Env) VCall(in *cir.Instr, args []uint64) (uint64, error) {
	if e.onVCall != nil {
		e.onVCall(in.Callee)
	}
	a := e.a
	switch in.Callee {
	case cir.VCGetHdr:
		switch args[0] {
		case cir.ProtoEth, cir.ProtoIPv4:
			return 1, nil
		case cir.ProtoTCP:
			return b2u(a.Proto == "tcp"), nil
		case cir.ProtoUDP:
			return b2u(a.Proto == "udp"), nil
		case cir.ProtoICMP:
			return b2u(a.Proto == "icmp"), nil
		default:
			return 0, nil
		}
	case cir.VCHdrField:
		if args[1] == cir.FieldFlags {
			if a.SYN {
				return 0x02, nil
			}
			return 0x10, nil // ACK
		}
		if args[1] == cir.FieldTTL {
			return 64, nil
		}
		if args[1] == cir.FieldLen {
			return uint64(a.PayloadLen + 40), nil
		}
		if args[1] == cir.FieldProto {
			switch a.Proto {
			case "tcp":
				return 6, nil
			case "udp":
				return 17, nil
			default:
				return 1, nil
			}
		}
		// Distinct non-zero values so address arithmetic stays plausible.
		e.counter++
		return 0x0a000000 + e.counter, nil
	case cir.VCSetField, cir.VCEmit, cir.VCCksumUpdate, cir.VCChecksum,
		cir.VCCrypto, cir.VCMapPut, cir.VCMapDelete, cir.VCArrRead, cir.VCArrWrite:
		return 0, nil
	case cir.VCPayloadLen:
		return uint64(a.PayloadLen), nil
	case cir.VCPayloadByte:
		return uint64(args[0] & 0xff), nil
	case cir.VCFlowKey:
		return 0xfeedface, nil
	case cir.VCMapLookup:
		return b2u(a.FlowSeen), nil
	case cir.VCMapGet:
		// Meter-style reads: token counts and timestamps. Heavy flows are
		// out of tokens.
		if a.Heavy {
			return 0, nil
		}
		return 1 << 20, nil
	case cir.VCMapIncr, cir.VCSketchAdd, cir.VCSketchRead:
		if a.Heavy {
			return 1 << 30, nil
		}
		return 1, nil
	case cir.VCLPMLookup:
		if a.FlowSeen {
			return 1, nil // a concrete next hop
		}
		// New flows may still match (default routes exist); model a miss
		// only for the heavy+unseen corner to expose the drop path.
		if a.Heavy {
			return ^uint64(0), nil
		}
		return 0, nil
	case cir.VCDPIScan:
		return b2u(a.DPIMatch), nil
	case cir.VCHash:
		return args[0] * 0x9e3779b97f4a7c15, nil
	case cir.VCNow:
		e.counter++
		return e.counter * 1000, nil
	case cir.VCRandom:
		e.counter++
		return e.counter * 2654435761, nil
	default:
		return 0, fmt.Errorf("symexec: unhandled vcall %s", in.Callee)
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Weights are the workload-derived probabilities of the attribute axes.
// SYN and flow-state presence are correlated, not independent: a TCP flow's
// first packet (the one that finds no state) carries the SYN, so
// P(SYN ∧ seen) = 0 and P(SYN | tcp ∧ new) = SYNOnNew (1 for well-formed
// connection traces).
type Weights struct {
	TCP  float64 // P(proto == tcp)
	UDP  float64
	ICMP float64
	// SYNOnNew is P(SYN | tcp ∧ flow unseen).
	SYNOnNew float64
	FlowSeen float64
	DPIMatch float64
	Heavy    float64
}

// WeightsFor derives attribute probabilities from workload expectations,
// with conventional defaults for attributes the profile cannot observe
// (pattern-match and heavy-flow rates).
func WeightsFor(wl mapper.Workload) Weights {
	return Weights{
		TCP:      wl.TCPFraction,
		UDP:      1 - wl.TCPFraction,
		ICMP:     0,
		SYNOnNew: 1,
		FlowSeen: wl.FlowReuse,
		DPIMatch: 0.01,
		Heavy:    0.05,
	}
}

// Prob returns the probability of a class's attribute valuation under the
// weights. The proto/SYN/seen axes use the correlated model described on
// Weights; DPI-match and heavy-hitter status are independent.
func (w Weights) Prob(a Attrs) float64 {
	p := 1.0
	switch a.Proto {
	case "tcp":
		p *= w.TCP
		switch {
		case a.SYN && a.FlowSeen:
			return 0 // established flows do not re-SYN
		case a.SYN:
			p *= (1 - w.FlowSeen) * w.SYNOnNew
		case a.FlowSeen:
			p *= w.FlowSeen
		default:
			p *= (1 - w.FlowSeen) * (1 - w.SYNOnNew)
		}
	case "udp":
		p *= w.UDP
		if a.FlowSeen {
			p *= w.FlowSeen
		} else {
			p *= 1 - w.FlowSeen
		}
	case "icmp":
		p *= w.ICMP
		if a.FlowSeen {
			p *= w.FlowSeen
		} else {
			p *= 1 - w.FlowSeen
		}
	}
	if a.DPIMatch {
		p *= w.DPIMatch
	} else {
		p *= 1 - w.DPIMatch
	}
	if a.Heavy {
		p *= w.Heavy
	} else {
		p *= 1 - w.Heavy
	}
	return p
}

// Normalize returns per-class probabilities that sum to 1 across the class
// list: each class absorbs the probability mass of every lattice valuation
// that takes its path.
func Normalize(classes []Class, w Weights) []float64 {
	probs := make([]float64, len(classes))
	total := 0.0
	for i := range classes {
		for _, a := range classes[i].AllAttrs {
			probs[i] += w.Prob(a)
		}
		if len(classes[i].AllAttrs) == 0 {
			probs[i] = w.Prob(classes[i].Attrs)
		}
		total += probs[i]
	}
	if total <= 0 {
		for i := range probs {
			probs[i] = 1 / float64(len(probs))
		}
		return probs
	}
	for i := range probs {
		probs[i] /= total
	}
	return probs
}

// Annotator refines a dataflow graph's edge probabilities from the NF's
// behaviour classes under a workload (§3.5's bridge from behaviours to the
// performance model). What does not depend on the workload it does once:
// the block → node map, and each class's node transitions, read off its
// block trace. Annotating for a workload is then one pass that adds every
// class's probability over its transitions.
type Annotator struct {
	g       *cir.Graph
	classes []Class
	// moves lists every class's node transitions back to back, in trace
	// order: class ci makes moves[off[ci]:off[ci+1]].
	moves []move
	off   []int
	// pairs counts the distinct (from, to) node pairs the edges join, and
	// edgePair holds each edge's.
	pairs    int
	edgePair []int
}

// move is one transition between nodes: from is the node left, and pair
// the index of the (from, to) node pair among the edges', or -1 when no
// edge joins the two.
type move struct{ from, pair int }

// NewAnnotator returns g's annotator for the classes, which must come from
// enumerating g's program. Neither g nor the classes are modified, and the
// annotator only reads them.
func NewAnnotator(g *cir.Graph, classes []Class) *Annotator {
	a := &Annotator{g: g, classes: classes, off: make([]int, 1, len(classes)+1), edgePair: make([]int, len(g.Edges))}
	pairOf := map[[2]int]int{}
	for i, e := range g.Edges {
		k := [2]int{e.From, e.To}
		id, ok := pairOf[k]
		if !ok {
			id = len(pairOf)
			pairOf[k] = id
		}
		a.edgePair[i] = id
	}
	a.pairs = len(pairOf)
	blockNode := map[int]int{}
	for _, n := range g.Nodes {
		for _, b := range n.Blocks {
			blockNode[b] = n.ID
		}
	}
	for ci := range classes {
		prev := -1
		for _, b := range classes[ci].BlockTrace {
			n, ok := blockNode[b]
			if !ok {
				continue
			}
			if prev != -1 && n != prev {
				pair, ok := pairOf[[2]int{prev, n}]
				if !ok {
					pair = -1
				}
				a.moves = append(a.moves, move{from: prev, pair: pair})
			}
			prev = n
		}
		a.off = append(a.off, len(a.moves))
	}
	return a
}

// Graph returns the graph annotated for the workload weights: each edge's
// probability is the weighted share of its source node's transitions that
// take it, and an edge whose source no class leaves keeps its default. The
// result shares the nodes of the annotator's graph, which nothing may
// write, and owns only its edges; the annotator's graph is not modified.
func (a *Annotator) Graph(w Weights) *cir.Graph {
	probs := Normalize(a.classes, w)
	sums := make([]float64, a.pairs+len(a.g.Nodes))
	trans, visits := sums[:a.pairs], sums[a.pairs:]
	for ci, p := range probs {
		if p == 0 {
			continue
		}
		for _, mv := range a.moves[a.off[ci]:a.off[ci+1]] {
			if mv.pair >= 0 {
				trans[mv.pair] += p
			}
			visits[mv.from] += p
		}
	}
	out := &cir.Graph{Prog: a.g.Prog, Nodes: a.g.Nodes, Edges: append([]cir.Edge(nil), a.g.Edges...), Entry: a.g.Entry}
	for i := range out.Edges {
		e := &out.Edges[i]
		if n := visits[e.From]; n > 0 {
			e.Prob = trans[a.edgePair[i]] / n
		}
	}
	return out
}

// AnnotatedGraph returns g annotated for the classes under the workload
// weights: NewAnnotator(g, classes).Graph(w). A caller that annotates one
// graph for many workloads keeps the Annotator instead.
func AnnotatedGraph(g *cir.Graph, classes []Class, w Weights) *cir.Graph {
	return NewAnnotator(g, classes).Graph(w)
}
