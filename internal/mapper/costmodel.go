package mapper

import (
	"math"

	"clara/internal/cir"
	"clara/internal/lnic"
)

// CostModel prices code blocks and state placements in expected cycles per
// packet. It deliberately mirrors the simulator's charging rules but with
// expectations in place of microarchitectural state: expected cache hit
// rates instead of a concrete cache, average payload instead of per-packet
// sizes, flow-reuse probability instead of real flow tables. The residual
// between this model and the simulator is Clara's prediction error (§4).
type CostModel struct {
	nic *lnic.LNIC
	wl  Workload
	npu int // representative general core
}

func NewCostModel(nic *lnic.LNIC, wl Workload) *CostModel {
	npu, _ := nic.PricingUnit()
	return &CostModel{nic: nic, wl: wl, npu: npu}
}

// l4SegLen estimates the L4 segment length for checksum costing.
func (cm *CostModel) L4SegLen() float64 { return cm.wl.AvgPayload + 20 }

// pktAccess is the expected cost of one packet-memory line fetch, blending
// the resident and spilled portions of an average packet.
func (cm *CostModel) PktAccess() float64 {
	resident, _ := cm.nic.AccessCycles(cm.npu, cm.nic.PktMem, false)
	if cm.wl.AvgWire <= float64(cm.nic.PktMemResident) {
		return resident
	}
	spillRegion := cm.nic.Mems[cm.nic.PktSpillMem]
	spill, ok := cm.nic.CachedAccessCycles(cm.npu, cm.nic.PktSpillMem, false, spillRegion.CacheBytes/2)
	if !ok {
		spill = spillRegion.LoadCycles
	}
	spilledFrac := (cm.wl.AvgWire - float64(cm.nic.PktMemResident)) / cm.wl.AvgWire
	return resident*(1-spilledFrac) + spill*spilledFrac
}

// constArg extracts a vcall argument when the defining instruction in the
// same node is a constant (e.g. crypto length).
func constArg(n *cir.Node, g *cir.Graph, vc cir.Instr, idx int) (uint64, bool) {
	if idx >= len(vc.Args) {
		return 0, false
	}
	target := vc.Args[idx]
	for _, bi := range n.Blocks {
		for _, in := range g.Prog.Blocks[bi].Instrs {
			if in.Op == cir.OpConst && in.Dst == target {
				return in.Imm, true
			}
		}
	}
	return 0, false
}

// nodeMultiplier is the per-packet repetition of a node body.
func (cm *CostModel) NodeMultiplier(n *cir.Node) float64 {
	if !n.Loop {
		return 1
	}
	if n.PayloadScaled {
		if cm.wl.AvgPayload > 1 {
			return cm.wl.AvgPayload
		}
		return 1
	}
	if n.Trip > 0 {
		return float64(n.Trip)
	}
	return float64(cir.DefaultLoopTrip)
}

// nodeCost prices one execution of node n of g on unit j, excluding
// state-placement-dependent table costs (priced by appendStateOptions).
func (cm *CostModel) NodeCost(g *cir.Graph, n *cir.Node, j int) float64 {
	u := &cm.nic.Units[j]
	switch u.Kind {
	case lnic.UnitParser, lnic.UnitEgress:
		return u.FixedCycles
	case lnic.UnitAccel:
		// One visit for the node's call of the unit's class.
		for _, vc := range n.VCalls {
			if cir.VCalls[vc.Callee].Accelerable == u.AccelClass {
				in := cm.vcallIn(g, n, vc)
				in.OnAccel = true
				return u.ServiceCycles(cm.nic.VCallPrice(u, vc.Callee, in).AccelBytes)
			}
		}
		return u.FixedCycles
	}
	// General core: instruction classes plus software vcall costs. An LPM
	// lookup's scan is priced with its table's placement (LookupCost).
	mult := cm.NodeMultiplier(n)
	cost := 0.0
	for cl, count := range n.ClassCount {
		cost += cm.nic.InstrCycles(u, cl) * float64(count)
	}
	for _, vc := range n.VCalls {
		if vc.Callee != cir.VCLPMLookup {
			cost += cm.softwareCost(u, g, n, vc)
		}
	}
	return cost * mult
}

// vcallIn is the static expectation of vc's price inputs: the literal
// crypto length when n defines it (the average payload otherwise), the
// average L4 segment and payload, and cold calls, except that a map_incr
// is taken to follow a lookup of its entry.
func (cm *CostModel) vcallIn(g *cir.Graph, n *cir.Node, vc cir.Instr) lnic.VCallIn {
	in := lnic.VCallIn{Offset: cm.wl.AvgWire - cm.wl.AvgPayload}
	switch vc.Callee {
	case cir.VCChecksum:
		in.Bytes = cm.L4SegLen()
	case cir.VCCrypto:
		in.Bytes = cm.wl.AvgPayload
		if v, ok := constArg(n, g, vc, 1); ok {
			in.Bytes = float64(v)
		}
	case cir.VCDPIScan:
		in.Bytes = cm.wl.AvgPayload
	case cir.VCMapIncr:
		in.Warm = true
	}
	return in
}

// softwareCost prices one vcall on general core u: its compute and its
// packet-memory line reads, its table accesses left to the state's
// placement. payload_byte reads run through the payload in sequence, so
// only the first byte on each line reads memory.
func (cm *CostModel) softwareCost(u *lnic.ComputeUnit, g *cir.Graph, n *cir.Node, vc cir.Instr) float64 {
	in := cm.vcallIn(g, n, vc)
	cost := func(in lnic.VCallIn) float64 {
		p := cm.nic.VCallPrice(u, vc.Callee, in)
		if p.PktLines == 0 {
			return p.Compute
		}
		return p.Compute + p.PktLines*cm.PktAccess()
	}
	if vc.Callee != cir.VCPayloadByte || cm.wl.AvgPayload < 1 {
		return cost(in)
	}
	fresh := cm.nic.PayloadLines(in.Offset, cm.wl.AvgPayload) / cm.wl.AvgPayload
	cold := cost(in)
	in.Warm = true
	return fresh*cold + (1-fresh)*cost(in)
}

// workingSet estimates a state's hot footprint in bytes: flow-keyed tables
// are bounded by the live flow count, everything else by declared size.
func (cm *CostModel) WorkingSet(obj cir.StateObj) int64 {
	entry := int64(obj.KeySize + obj.ValueSize)
	if entry <= 0 {
		entry = 1
	}
	if obj.KeySize == 13 && cm.wl.Flows > 0 { // keyed by 5-tuple flow keys
		n := int64(cm.wl.Flows)
		if obj.Capacity > 0 && int64(obj.Capacity) < n {
			n = int64(obj.Capacity)
		}
		return n * entry
	}
	return int64(obj.Bytes())
}

// StateAccess is the expected cycles of one access to region m for state obj.
func (cm *CostModel) StateAccess(obj cir.StateObj, region int) float64 {
	c, ok := cm.nic.CachedAccessCycles(cm.npu, region, false, cm.WorkingSet(obj))
	if !ok {
		return cm.nic.Mems[region].LoadCycles
	}
	return c
}

// lpmScanCost prices one software LPM match/action scan in region m.
func (cm *CostModel) LPMScanCost(obj cir.StateObj, region int) float64 {
	p := cm.nic.VCallPrice(&cm.nic.Units[cm.npu], cir.VCLPMLookup,
		lnic.VCallIn{Region: region, Entries: obj.Capacity, EntryBytes: lnic.EntryBytes(obj)})
	return p.Touches*cm.ScanAccess(obj, region) + p.Compute
}

// ScanAccess is the expected cycles of one line read of a scan over obj's
// table in region: a sequential scan of the whole table hits its cache
// steadily once warm.
func (cm *CostModel) ScanAccess(obj cir.StateObj, region int) float64 {
	acc, ok := cm.nic.CachedAccessCycles(cm.npu, region, false, int64(obj.Bytes()))
	if !ok {
		acc = cm.nic.Mems[region].LoadCycles
	}
	return acc
}

// appendStateOptions appends obj's Γ placements (region × flow-cache),
// with their expected per-packet cost contributions, to out.
func (cm *CostModel) appendStateOptions(out []stateOption, obj cir.StateObj, use Usage, h Hints) []stateOption {
	fcAvail := len(cm.nic.Accelerators("flowcache")) > 0 && !h.DisableFlowCache &&
		(obj.Kind == cir.StateMap || obj.Kind == cir.StateLPM) && use.Lookups > 0
	var fcFixed float64
	var fcEntries int
	if fcAvail {
		fc := cm.nic.Units[cm.nic.Accelerators("flowcache")[0]]
		fcFixed = fc.FixedCycles
		fcEntries = cm.wl.Flows
		if obj.Capacity > 0 && obj.Capacity < fcEntries {
			fcEntries = obj.Capacity
		}
		if fcEntries > fc.TableEntries {
			fcAvail = false // cannot hold the working set at all
		}
	}
	for region := range cm.nic.Mems {
		if int64(obj.Bytes()) > cm.nic.Mems[region].Bytes {
			continue
		}
		if _, reachable := cm.nic.AccessCycles(cm.npu, region, false); !reachable {
			continue
		}
		base := cm.StateCost(obj, use, region)
		if !(fcAvail && h.ForceFlowCache) {
			out = append(out, stateOption{region: region, cost: base, bytes: obj.Bytes()})
		}
		if fcAvail {
			out = append(out, stateOption{
				region: region, flowCache: true, cost: cm.fcStateCost(obj, use, region, fcFixed),
				bytes: obj.Bytes(), fcEntries: fcEntries,
			})
		}
	}
	return out
}

// fcStateCost is StateCost with obj's lookups fronted by the flow cache,
// whose visit costs fcFixed: hits skip the software lookup entirely; misses
// pay both the accelerator visit and the software path.
func (cm *CostModel) fcStateCost(obj cir.StateObj, use Usage, region int, fcFixed float64) float64 {
	miss := 1 - cm.wl.FlowReuse
	sw := cm.LookupCost(obj, region)
	return use.Lookups*(fcFixed+miss*sw) + cm.StateCost(obj, use, region) - use.Lookups*sw
}

// lookupCost is the software cost of one lookup against region.
func (cm *CostModel) LookupCost(obj cir.StateObj, region int) float64 {
	acc := cm.StateAccess(obj, region)
	if obj.Kind == cir.StateLPM {
		return cm.LPMScanCost(obj, region)
	}
	// Bucket read always; entry read when present.
	return acc * (1 + cm.wl.FlowReuse)
}

// StateCost prices all of a state's expected per-packet operations when
// placed in region, without the flow cache.
func (cm *CostModel) StateCost(obj cir.StateObj, use Usage, region int) float64 {
	acc := cm.StateAccess(obj, region)
	accesses := func(vc cir.VCall) float64 { // table accesses per op
		p := cm.nic.VCallPrice(nil, vc, lnic.VCallIn{Warm: true})
		return p.Probes + p.Touches
	}
	cost := use.Lookups * cm.LookupCost(obj, region)
	cost += use.Puts * accesses(cir.VCMapPut) * acc
	cost += use.Deletes * accesses(cir.VCMapDelete) * acc
	cost += use.Incrs * accesses(cir.VCMapIncr) * acc
	cost += use.ArrOps * accesses(cir.VCArrRead) * acc
	cost += use.Sketch * accesses(cir.VCSketchAdd) * acc
	if use.DPI > 0 {
		// One automaton transition fetch per payload byte.
		cost += use.DPI * cm.wl.AvgPayload * acc
	}
	return cost
}

// mappingCost recomputes the objective for an externally built mapping
// (used by the greedy baseline).
func (cm *CostModel) mappingCost(g *cir.Graph, visits []float64, m *Mapping, uses map[string]Usage) float64 {
	total := 0.0
	for i := range g.Nodes {
		total += visits[i] * cm.NodeCost(g, &g.Nodes[i], m.NodeUnit[i])
	}
	for _, obj := range g.Prog.State {
		region, ok := m.StateMem[obj.Name]
		if !ok {
			continue
		}
		use := uses[obj.Name]
		if m.UseFlowCache[obj.Name] {
			fcs := cm.nic.Accelerators("flowcache")
			fcFixed := 0.0
			if len(fcs) > 0 {
				fcFixed = cm.nic.Units[fcs[0]].FixedCycles
			}
			total += cm.fcStateCost(obj, use, region, fcFixed)
		} else {
			total += cm.StateCost(obj, use, region)
		}
	}
	return total
}

// BestRegionFor returns the reachable region with the lowest expected
// access cost that can hold obj, for side-local placement decisions outside
// the ILP (the partial-offload analyzer).
func (cm *CostModel) BestRegionFor(obj cir.StateObj) (int, bool) {
	best, bestCost := -1, math.Inf(1)
	for region := range cm.nic.Mems {
		if int64(obj.Bytes()) > cm.nic.Mems[region].Bytes {
			continue
		}
		if _, ok := cm.nic.AccessCycles(cm.npu, region, false); !ok {
			continue
		}
		if c := cm.StateAccess(obj, region); c < bestCost {
			best, bestCost = region, c
		}
	}
	return best, best >= 0
}
