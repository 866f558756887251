// Package mapper lowers an NF dataflow graph onto a parameterized LNIC by
// solving the paper's §3.4 integer linear program: compute constraints Π
// assign every code block to exactly one compute unit while preserving
// pipeline order, memory constraints Γ place every state object into a
// memory region under capacity limits, and switching constraints Θ bound
// accelerator utilization at the offered packet rate. The objective
// minimizes expected per-packet latency, emulating the hand-tuning a
// developer would perform when porting; strategy hints pin individual
// decisions to reproduce specific porting variants (the paper's Figure 1).
package mapper

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"clara/internal/cir"
	"clara/internal/ilp"
	"clara/internal/lnic"
	"clara/internal/workload"
)

// Workload carries the traffic expectations the cost model prices against
// (§3.5: the user-supplied workload profile).
type Workload struct {
	AvgPayload float64
	AvgWire    float64
	Flows      int
	// FlowReuse is the probability a packet belongs to an already-seen flow
	// (drives flow-cache and stateful-table hit rates).
	FlowReuse   float64
	RatePPS     float64
	TCPFraction float64
	SYNFraction float64
}

// FromStats converts measured trace statistics into mapper expectations.
func FromStats(s workload.Stats) Workload {
	return Workload{
		AvgPayload:  s.AvgPayload,
		AvgWire:     s.AvgWire,
		Flows:       s.Flows,
		FlowReuse:   s.FlowHitFraction,
		RatePPS:     s.RatePPS,
		TCPFraction: s.TCPFraction,
		SYNFraction: s.SYNFraction,
	}
}

// FromProfile converts an abstract workload profile into expectations
// without generating a trace ("10k concurrent TCP flows with 300-byte
// average packet size").
func FromProfile(p workload.Profile) Workload {
	// Expected distinct flows in a trace of P packets drawn uniformly from
	// F flows is F(1 - e^{-P/F}); a packet reuses a flow with probability
	// 1 - distinct/P (the coupon-collector expectation, exact enough for
	// Zipf too since the head flows dominate reuse).
	reuse := 0.0
	distinct := float64(p.Flows)
	if p.Packets > 0 && p.Flows > 0 {
		pf := float64(p.Packets)
		ff := float64(p.Flows)
		distinct = ff * (1 - math.Exp(-pf/ff))
		reuse = 1 - distinct/pf
		if reuse < 0 {
			reuse = 0
		}
	}
	syn := 0.0
	if p.Packets > 0 {
		syn = p.TCPFraction * distinct / float64(p.Packets)
		if syn > 1 {
			syn = 1
		}
	}
	return Workload{
		AvgPayload:  float64(p.PayloadBytes),
		AvgWire:     float64(p.PayloadBytes + 54),
		Flows:       p.Flows,
		FlowReuse:   reuse,
		RatePPS:     p.RatePPS,
		TCPFraction: p.TCPFraction,
		SYNFraction: syn,
	}
}

// Hints emulate hand-tuning decisions by constraining the ILP. The zero
// value leaves every decision to the solver.
type Hints struct {
	// PinState forces a state object into a named memory region.
	PinState map[string]string
	// DisableFlowCache forbids fronting any state with the flow cache;
	// ForceFlowCache requires it for every cacheable state.
	DisableFlowCache bool
	ForceFlowCache   bool
	// DisableChecksumAccel / DisableCryptoAccel force software execution.
	DisableChecksumAccel bool
	DisableCryptoAccel   bool
	// SoftwareParse keeps header parsing on the cores.
	SoftwareParse bool
}

// Mapping is the solved lowering: the paper's "mapping from core NF logic
// to SmartNIC hardware resources".
type Mapping struct {
	// NodeUnit assigns each dataflow node (by node ID) to an LNIC unit.
	NodeUnit []int
	// StateMem assigns each state object to a memory region.
	StateMem map[string]int
	// UseFlowCache marks states fronted by the flow-cache accelerator.
	UseFlowCache map[string]bool
	// Derived placement flags.
	ChecksumOnAccel bool
	CryptoOnAccel   bool
	ParseOnEngine   bool
	// CostCycles is the objective value: expected per-packet processing
	// cycles under the workload (excluding fixed ingress/egress overhead).
	CostCycles float64
	// SolverNodes is the branch-and-bound effort expended.
	SolverNodes int
}

// Describe renders the mapping against the LNIC for human consumption.
func (m *Mapping) Describe(g *cir.Graph, nic *lnic.LNIC) string {
	out := fmt.Sprintf("mapping of %s onto %s (expected %.0f cycles/packet)\n",
		g.Prog.Name, nic.Name, m.CostCycles)
	for i, n := range g.Nodes {
		out += fmt.Sprintf("  node n%d (%s) -> %s\n", n.ID, n.Kind, nic.Units[m.NodeUnit[i]].Name)
	}
	names := make([]string, 0, len(m.StateMem))
	for s := range m.StateMem {
		names = append(names, s)
	}
	sort.Strings(names)
	for _, s := range names {
		fc := ""
		if m.UseFlowCache[s] {
			fc = " (+flow cache)"
		}
		out += fmt.Sprintf("  state %s -> %s%s\n", s, nic.Mems[m.StateMem[s]].Name, fc)
	}
	return out
}

// ErrInfeasible wraps mapping failures with the blocking reason.
type ErrInfeasible struct{ Reason string }

func (e *ErrInfeasible) Error() string { return "mapper: infeasible: " + e.Reason }

// Map solves the §3.4 ILP for graph g on nic under the workload and hints.
func Map(g *cir.Graph, nic *lnic.LNIC, wl Workload, h Hints) (*Mapping, error) {
	m, _, _, err := mapFrom(g, nic, wl, h, nil, nil, false)
	return m, err
}

// MapFrom is Map that also returns the ILP root's tableau after simplex
// phase 1 (ilp.Model.SolveFrom), and starts from prev when the ILP's rows
// equal those prev was taken from, bit for bit, or differ only in
// passenger rows such as the workload-priced Θ and flow-cache rows. The
// workload prices the objective, so many workloads share one phase 1; the
// mapping is exactly Map's either way. replayed reports a start from prev
// that rebuilt passenger rows (ilp.Solution.Replayed).
//
// dom, when not nil, must be NodeDomains(g, nic, h.Domain()), kept from an
// earlier map of a graph with the same nodes; nil computes them.
func MapFrom(g *cir.Graph, nic *lnic.LNIC, wl Workload, h Hints, prev *ilp.Phase1, dom *Domains) (m *Mapping, snap *ilp.Phase1, replayed bool, err error) {
	return mapFrom(g, nic, wl, h, prev, dom, true)
}

// mapFrom is Map, and MapFrom when record is set.
func mapFrom(g *cir.Graph, nic *lnic.LNIC, wl Workload, h Hints, prev *ilp.Phase1, dom *Domains, record bool) (*Mapping, *ilp.Phase1, bool, error) {
	enc, err := newEncoding(g, nic, wl, h, dom)
	if err != nil {
		return nil, nil, false, err
	}
	var sol *ilp.Solution
	var snap *ilp.Phase1
	if record {
		sol, snap, err = enc.model.SolveFrom(prev)
	} else {
		sol, err = enc.model.Solve()
	}
	if err != nil {
		return nil, nil, false, fmt.Errorf("mapper: %w", err)
	}
	if sol.Status != ilp.StatusOptimal {
		return nil, snap, sol.Replayed, &ErrInfeasible{Reason: fmt.Sprintf("ILP is %s (capacity or pipeline-order conflict)", sol.Status)}
	}
	return enc.decode(sol), snap, sol.Replayed, nil
}

// Encode returns the §3.4 ILP that Map solves for g on nic, unsolved.
func Encode(g *cir.Graph, nic *lnic.LNIC, wl Workload, h Hints) (*ilp.Model, error) {
	enc, err := newEncoding(g, nic, wl, h, nil)
	if err != nil {
		return nil, err
	}
	return enc.model, nil
}

// stateOption is one Γ choice for a state object: a region, optionally
// fronted by the flow cache.
type stateOption struct {
	region    int
	flowCache bool
	cost      float64 // expected per-packet cycles attributable to this state
	bytes     int     // footprint charged against the region
	fcEntries int     // flow-cache entries consumed when flowCache
}

type encoding struct {
	g     *cir.Graph
	nic   *lnic.LNIC
	cm    *CostModel
	model *ilp.Model

	visits []float64
	// units lists every node's allowed units back to back: node i may run
	// on units[xOff[i]:xOff[i+1]], and variable ilp.VarID(k) assigns it to
	// units[k]. Both are a Domains' own, which the encoding only reads.
	units []int
	xOff  []int
	// opts lists every state's Γ options back to back, in g.Prog.State
	// order: state s chooses among opts[yOff[s]:yOff[s+1]], and variable
	// yVar(k) selects opts[k].
	opts []stateOption
	yOff []int
}

// yVar is the variable selecting state option opts[k].
func (enc *encoding) yVar(k int) ilp.VarID { return ilp.VarID(len(enc.units) + k) }

// Domains are the Π decisions of a graph's nodes on a target: each node's
// allowed units, one per class of interchangeable units. They read the
// nodes, the target and the DomainHints, never the workload or the edge
// probabilities, so every graph annotated from one base graph, which
// shares its nodes (symexec.Annotator), has the same domains.
type Domains struct {
	// units lists every node's allowed units back to back: node i may run
	// on units[xOff[i]:xOff[i+1]].
	units []int
	xOff  []int
	// err is why there are none: the target fails validation, or a node has
	// no capable unit (*ErrInfeasible).
	err error
}

// DomainHints are the hints node domains depend on.
type DomainHints struct {
	SoftwareParse        bool
	DisableChecksumAccel bool
	DisableCryptoAccel   bool
}

// Domain returns the part of h that node domains depend on.
func (h Hints) Domain() DomainHints {
	return DomainHints{
		SoftwareParse:        h.SoftwareParse,
		DisableChecksumAccel: h.DisableChecksumAccel,
		DisableCryptoAccel:   h.DisableCryptoAccel,
	}
}

// NodeDomains validates nic and computes every node of g's allowed units
// on it under h.
func NodeDomains(g *cir.Graph, nic *lnic.LNIC, h DomainHints) *Domains {
	if err := nic.Validate(); err != nil {
		return &Domains{err: err}
	}
	d := &Domains{xOff: make([]int, 1, len(g.Nodes)+1)}
	rep := nic.Representatives()
	for i := range g.Nodes {
		node := &g.Nodes[i]
		d.units = appendAllowedUnits(d.units, nic, rep, node, h)
		d.xOff = append(d.xOff, len(d.units))
		if d.xOff[i] == d.xOff[i+1] {
			return &Domains{err: &ErrInfeasible{Reason: fmt.Sprintf(
				"node n%d (%s) has no capable compute unit on %s", node.ID, node.Kind, nic.Name)}}
		}
	}
	return d
}

// newDomains computes every state's Γ options and takes every node's
// allowed units from dom, computing them when dom is nil — the decisions a
// mapping chooses among — without building the ILP over them.
func newDomains(g *cir.Graph, nic *lnic.LNIC, wl Workload, h Hints, dom *Domains) (*encoding, error) {
	if dom == nil {
		dom = NodeDomains(g, nic, h.Domain())
	}
	if dom.err != nil {
		return nil, dom.err
	}
	enc := &encoding{
		g: g, nic: nic,
		cm:     NewCostModel(nic, wl),
		visits: g.ExpectedVisits(),
		units:  dom.units,
		xOff:   dom.xOff,
		yOff:   make([]int, 1, len(g.Prog.State)+1),
	}
	stateUse := enc.stateUsage()
	for s, obj := range g.Prog.State {
		first := len(enc.opts)
		enc.opts = enc.cm.appendStateOptions(enc.opts, obj, stateUse[obj.Name], h)
		if pin, ok := h.PinState[obj.Name]; ok {
			region, found := nic.MemByName(pin)
			if !found {
				return nil, fmt.Errorf("mapper: hint pins %s to unknown region %q", obj.Name, pin)
			}
			kept := slices.DeleteFunc(enc.opts[first:], func(o stateOption) bool { return o.region != region })
			enc.opts = enc.opts[:first+len(kept)]
		}
		enc.yOff = append(enc.yOff, len(enc.opts))
		if enc.yOff[s] == enc.yOff[s+1] {
			return nil, &ErrInfeasible{Reason: fmt.Sprintf("state %s has no feasible placement", obj.Name)}
		}
	}
	return enc, nil
}

// newEncoding builds the §3.4 ILP over the domains of g on nic; dom is as
// for newDomains.
func newEncoding(g *cir.Graph, nic *lnic.LNIC, wl Workload, h Hints, dom *Domains) (*encoding, error) {
	enc, err := newDomains(g, nic, wl, h, dom)
	if err != nil {
		return nil, err
	}
	enc.model = ilp.NewModel()
	enc.model.SetNamer(enc)
	// Terms: every decision in its Π or Γ row, each edge's two domains,
	// each Γ option in its capacity and flow-cache rows, and each
	// accelerator decision in its Θ row.
	nTerms := len(enc.units) + 3*len(enc.opts)
	for _, e := range g.Edges {
		nTerms += enc.xOff[e.To+1] - enc.xOff[e.To] + enc.xOff[e.From+1] - enc.xOff[e.From]
	}
	if wl.RatePPS > 0 {
		for _, j := range enc.units {
			if nic.Units[j].Kind == lnic.UnitAccel {
				nTerms++
			}
		}
	}
	enc.model.Grow(len(enc.units)+len(enc.opts),
		len(g.Nodes)+len(g.Edges)+len(g.Prog.State)+len(nic.Mems)+1+len(nic.Units), nTerms)
	var terms []ilp.Term

	// Π: node-to-unit assignment with capability filtering.
	for i := range g.Nodes {
		terms = terms[:0]
		for _, j := range enc.units[enc.xOff[i]:enc.xOff[i+1]] {
			v := enc.model.Binary("")
			terms = append(terms, ilp.Term{Var: v, Coef: 1})
			enc.model.SetObjectiveTerm(v, enc.visits[i]*enc.cm.NodeCost(g, &g.Nodes[i], j))
		}
		enc.model.AddConstraint("", terms, ilp.EQ, 1)
	}

	// Π ordering: dataflow edges must not run backwards in pipeline stage.
	// The lower-indexed node's variables go first, so the row arrives in
	// variable order and AddConstraint has nothing to sort.
	for _, e := range g.Edges {
		lo, hi, sign := e.From, e.To, -1.0
		if lo > hi {
			lo, hi, sign = hi, lo, 1
		}
		terms = terms[:0]
		for _, n := range [2]int{lo, hi} {
			for k := enc.xOff[n]; k < enc.xOff[n+1]; k++ {
				terms = append(terms, ilp.Term{Var: ilp.VarID(k), Coef: sign * float64(nic.Units[enc.units[k]].Stage)})
			}
			sign = -sign
		}
		enc.model.AddConstraint("", terms, ilp.GE, 0)
	}

	// Γ: state placement options.
	for s := range g.Prog.State {
		terms = terms[:0]
		for k := enc.yOff[s]; k < enc.yOff[s+1]; k++ {
			v := enc.model.Binary("")
			terms = append(terms, ilp.Term{Var: v, Coef: 1})
			enc.model.SetObjectiveTerm(v, enc.opts[k].cost)
		}
		enc.model.AddConstraint("", terms, ilp.EQ, 1)
	}

	// Γ capacity per region.
	for mi := range nic.Mems {
		terms = terms[:0]
		for k, o := range enc.opts {
			if o.region == mi {
				terms = append(terms, ilp.Term{Var: enc.yVar(k), Coef: float64(o.bytes)})
			}
		}
		if len(terms) > 0 {
			enc.model.AddConstraint("cap_"+nic.Mems[mi].Name, terms, ilp.LE, float64(nic.Mems[mi].Bytes))
		}
	}

	// Flow-cache table capacity.
	if fcs := nic.Accelerators("flowcache"); len(fcs) > 0 {
		terms = terms[:0]
		for k, o := range enc.opts {
			if o.flowCache {
				terms = append(terms, ilp.Term{Var: enc.yVar(k), Coef: float64(o.fcEntries)})
			}
		}
		if len(terms) > 0 {
			enc.model.AddConstraint("fc_entries", terms, ilp.LE, float64(nic.Units[fcs[0]].TableEntries))
		}
	}

	// Θ: accelerator utilization at the offered rate must stay below 1.
	if wl.RatePPS > 0 {
		cyclesPerSec := nic.ClockGHz * 1e9
		for j := range nic.Units {
			u := &nic.Units[j]
			if u.Kind != lnic.UnitAccel {
				continue
			}
			terms = terms[:0]
			svc := u.ServiceCycles(wl.AvgPayload)
			for i := range g.Nodes {
				if k := enc.xVar(i, j); k >= 0 {
					terms = append(terms, ilp.Term{Var: ilp.VarID(k), Coef: enc.visits[i] * svc * wl.RatePPS / cyclesPerSec})
				}
			}
			if len(terms) > 0 {
				enc.model.AddConstraint("util_"+u.Name, terms, ilp.LE, float64(u.Threads))
			}
		}
	}
	return enc, nil
}

// xVar returns the variable assigning node i to unit j, or -1 when j may
// not host node i.
func (enc *encoding) xVar(i, j int) int {
	for k := enc.xOff[i]; k < enc.xOff[i+1]; k++ {
		if enc.units[k] == j {
			return k
		}
	}
	return -1
}

// VarName names variables as x_n<node>_<unit> and y_<state>_<region>_fc<bool>.
func (enc *encoding) VarName(v ilp.VarID) string {
	k := int(v)
	if k < len(enc.units) {
		i := sort.SearchInts(enc.xOff, k+1) - 1
		return fmt.Sprintf("x_n%d_%s", i, enc.nic.Units[enc.units[k]].Name)
	}
	k -= len(enc.units)
	s := sort.SearchInts(enc.yOff, k+1) - 1
	o := enc.opts[k]
	return fmt.Sprintf("y_%s_%s_fc%v", enc.g.Prog.State[s].Name, enc.nic.Mems[o.region].Name, o.flowCache)
}

// ConstraintName names the rows added without a name: one assign_n<node>
// per node, one order_n<from>_n<to> per edge, one place_<state> per state.
func (enc *encoding) ConstraintName(c int) string {
	if c < len(enc.g.Nodes) {
		return fmt.Sprintf("assign_n%d", c)
	}
	c -= len(enc.g.Nodes)
	if c < len(enc.g.Edges) {
		e := enc.g.Edges[c]
		return fmt.Sprintf("order_n%d_n%d", e.From, e.To)
	}
	return "place_" + enc.g.Prog.State[c-len(enc.g.Edges)].Name
}

// AllowedUnits filters LNIC units by node capability (the typed compute
// units of §3.1) and hints, one unit per class of interchangeable units
// (lnic.Representatives).
func AllowedUnits(nic *lnic.LNIC, n *cir.Node, h Hints) []int {
	return appendAllowedUnits(nil, nic, nic.Representatives(), n, h.Domain())
}

// appendAllowedUnits appends n's allowed units to dst in unit order,
// skipping every unit that is not its own representative in rep: a twin
// offers the same choice at the same price as its representative, and no
// row limits it alone, so its column could only tie.
func appendAllowedUnits(dst []int, nic *lnic.LNIC, rep []int, n *cir.Node, h DomainHints) []int {
	for j := range nic.Units {
		if rep[j] != j {
			continue
		}
		u := &nic.Units[j]
		ok := false
		switch n.Kind {
		case cir.NodeParse:
			ok = u.Kind == lnic.UnitNPU || u.Kind == lnic.UnitMAU ||
				(u.Kind == lnic.UnitParser && !h.SoftwareParse)
		case cir.NodeChecksum:
			ok = u.Kind == lnic.UnitNPU ||
				(u.Kind == lnic.UnitAccel && u.AccelClass == "checksum" && !h.DisableChecksumAccel)
		case cir.NodeCrypto:
			ok = u.Kind == lnic.UnitNPU ||
				(u.Kind == lnic.UnitAccel && u.AccelClass == "crypto" && !h.DisableCryptoAccel)
		case cir.NodeTableOp, cir.NodeCompute:
			ok = u.Kind == lnic.UnitNPU || u.Kind == lnic.UnitMAU
		case cir.NodePayloadLoop:
			ok = u.Kind == lnic.UnitNPU
		case cir.NodeEmit:
			ok = u.Kind == lnic.UnitNPU || u.Kind == lnic.UnitMAU || u.Kind == lnic.UnitEgress
		}
		if ok {
			dst = append(dst, j)
		}
	}
	return dst
}

// Usage tallies, per state, the expected per-packet vcall op counts
// weighted by node visit frequency.
type Usage struct {
	Lookups float64 // map_lookup / lpm_lookup
	Puts    float64 // map_put
	Deletes float64 // map_delete
	Incrs   float64 // map_incr
	ArrOps  float64
	Sketch  float64
	DPI     float64 // dpi_scan invocations
}

func (enc *encoding) stateUsage() map[string]Usage {
	return StateUsage(enc.g, enc.visits, nil)
}

// StateUsage computes per-state operation expectations over the nodes for
// which include returns true (nil includes every node). The partial-offload
// analyzer uses the filter to split usage between the NIC and host sides.
func StateUsage(g *cir.Graph, visits []float64, include func(node int) bool) map[string]Usage {
	out := map[string]Usage{}
	for i := range g.Nodes {
		if include != nil && !include(i) {
			continue
		}
		n := &g.Nodes[i]
		w := visits[i]
		if n.Loop && n.Trip > 0 {
			w *= float64(n.Trip)
		}
		for _, vc := range n.VCalls {
			if vc.State == "" {
				continue
			}
			u := out[vc.State]
			switch vc.Callee {
			case cir.VCMapLookup, cir.VCLPMLookup:
				u.Lookups += w
			case cir.VCMapPut:
				u.Puts += w
			case cir.VCMapDelete:
				u.Deletes += w
			case cir.VCMapIncr:
				u.Incrs += w
			case cir.VCArrRead, cir.VCArrWrite:
				u.ArrOps += w
			case cir.VCSketchAdd, cir.VCSketchRead:
				u.Sketch += w
			case cir.VCDPIScan:
				u.DPI += w
			}
			out[vc.State] = u
		}
	}
	return out
}

func (enc *encoding) decode(sol *ilp.Solution) *Mapping {
	m := &Mapping{
		NodeUnit:     make([]int, len(enc.g.Nodes)),
		StateMem:     map[string]int{},
		UseFlowCache: map[string]bool{},
		CostCycles:   sol.Objective,
		SolverNodes:  sol.Nodes,
	}
	for i := range enc.g.Nodes {
		for k := enc.xOff[i]; k < enc.xOff[i+1]; k++ {
			if sol.Bool(ilp.VarID(k)) {
				j := enc.units[k]
				m.NodeUnit[i] = j
				u := &enc.nic.Units[j]
				switch {
				case u.Kind == lnic.UnitParser && enc.g.Nodes[i].Kind == cir.NodeParse:
					m.ParseOnEngine = true
				case u.Kind == lnic.UnitAccel && u.AccelClass == "checksum":
					m.ChecksumOnAccel = true
				case u.Kind == lnic.UnitAccel && u.AccelClass == "crypto":
					m.CryptoOnAccel = true
				}
			}
		}
	}
	for s, obj := range enc.g.Prog.State {
		for k := enc.yOff[s]; k < enc.yOff[s+1]; k++ {
			if sol.Bool(enc.yVar(k)) {
				o := enc.opts[k]
				m.StateMem[obj.Name] = o.region
				if o.flowCache {
					m.UseFlowCache[obj.Name] = true
				}
			}
		}
	}
	return m
}

// Greedy is the ablation baseline: first-fit placement without the solver.
// Nodes go to the cheapest capable unit that does not violate stage order;
// states go to the fastest region with spare capacity; accelerators are
// used whenever available.
func Greedy(g *cir.Graph, nic *lnic.LNIC, wl Workload, h Hints) (*Mapping, error) {
	enc, err := newDomains(g, nic, wl, h, nil)
	if err != nil {
		return nil, err
	}
	cm := enc.cm
	m := &Mapping{
		NodeUnit:     make([]int, len(g.Nodes)),
		StateMem:     map[string]int{},
		UseFlowCache: map[string]bool{},
	}
	// Assign nodes in topological order, tracking the minimum allowed stage.
	minStage := 0
	order := topoNodes(g)
	for _, i := range order {
		node := &g.Nodes[i]
		best, bestCost := -1, math.Inf(1)
		allowed := enc.units[enc.xOff[i]:enc.xOff[i+1]]
		for _, j := range allowed {
			if nic.Units[j].Stage < minStage {
				continue
			}
			c := cm.NodeCost(g, node, j)
			if c < bestCost {
				best, bestCost = j, c
			}
		}
		if best == -1 {
			// Fall back to ignoring stage order (greedy is allowed to be
			// wrong; the benchmark shows the difference).
			for _, j := range allowed {
				c := cm.NodeCost(g, node, j)
				if c < bestCost {
					best, bestCost = j, c
				}
			}
		}
		if best == -1 {
			return nil, &ErrInfeasible{Reason: fmt.Sprintf("greedy: node n%d unplaceable", i)}
		}
		m.NodeUnit[i] = best
		if s := nic.Units[best].Stage; s > minStage {
			minStage = s
		}
		u := &nic.Units[best]
		switch {
		case u.Kind == lnic.UnitParser && node.Kind == cir.NodeParse:
			m.ParseOnEngine = true
		case u.Kind == lnic.UnitAccel && u.AccelClass == "checksum":
			m.ChecksumOnAccel = true
		case u.Kind == lnic.UnitAccel && u.AccelClass == "crypto":
			m.CryptoOnAccel = true
		}
	}
	// States: fastest region first-fit by declared footprint.
	free := make([]int64, len(nic.Mems))
	for i := range nic.Mems {
		free[i] = nic.Mems[i].Bytes
	}
	regionsByLatency := make([]int, len(nic.Mems))
	for i := range regionsByLatency {
		regionsByLatency[i] = i
	}
	sort.Slice(regionsByLatency, func(a, b int) bool {
		return nic.Mems[regionsByLatency[a]].LoadCycles < nic.Mems[regionsByLatency[b]].LoadCycles
	})
	for s, obj := range g.Prog.State {
		placed := false
		for _, region := range regionsByLatency {
			if pin, ok := h.PinState[obj.Name]; ok {
				if id, _ := nic.MemByName(pin); id != region {
					continue
				}
			}
			if int64(obj.Bytes()) <= free[region] {
				m.StateMem[obj.Name] = region
				free[region] -= int64(obj.Bytes())
				placed = true
				break
			}
		}
		if !placed {
			return nil, &ErrInfeasible{Reason: fmt.Sprintf("greedy: state %s does not fit", obj.Name)}
		}
		// Greedy uses the flow cache whenever permitted and applicable.
		if !h.DisableFlowCache && len(nic.Accelerators("flowcache")) > 0 {
			for _, o := range enc.opts[enc.yOff[s]:enc.yOff[s+1]] {
				if o.flowCache {
					m.UseFlowCache[obj.Name] = true
				}
			}
		}
	}
	m.CostCycles = cm.mappingCost(g, enc.visits, m, enc.stateUsage())
	return m, nil
}

func topoNodes(g *cir.Graph) []int {
	inDeg := make([]int, len(g.Nodes))
	for _, e := range g.Edges {
		inDeg[e.To]++
	}
	var queue, order []int
	for i := range g.Nodes {
		if inDeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, e := range g.Edges {
			if e.From == n {
				inDeg[e.To]--
				if inDeg[e.To] == 0 {
					queue = append(queue, e.To)
				}
			}
		}
	}
	return order
}
