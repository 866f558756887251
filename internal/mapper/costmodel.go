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

// perByteRead prices one payload byte read on a core: sequential accesses
// amortize over the memory line.
func (cm *CostModel) PerByteRead() float64 {
	line := float64(cm.nic.Mems[cm.nic.PktMem].LineBytes)
	if line <= 0 {
		line = 64
	}
	return 1 + cm.PktAccess()/line
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

// nodeCost prices one execution of node n on unit j, excluding
// state-placement-dependent table costs (priced by appendStateOptions).
func (cm *CostModel) NodeCost(n *cir.Node, j int) float64 {
	u := &cm.nic.Units[j]
	switch u.Kind {
	case lnic.UnitParser, lnic.UnitEgress:
		return u.FixedCycles
	case lnic.UnitAccel:
		switch u.AccelClass {
		case "checksum":
			return u.FixedCycles + u.PerByteCycles*cm.L4SegLen()
		case "crypto":
			return u.FixedCycles + u.PerByteCycles*64
		default:
			return u.FixedCycles
		}
	}
	// General core: instruction classes plus software vcall costs.
	mult := cm.NodeMultiplier(n)
	cost := 0.0
	for cl, count := range n.ClassCount {
		cost += cm.nic.InstrCycles(u, cl) * float64(count)
	}
	for _, vc := range n.VCalls {
		cost += cm.VCallSoftwareCost(vc)
	}
	return cost * mult
}

// vcallCoreCost prices one software vcall execution on a general core,
// excluding table-access components.
func (cm *CostModel) VCallSoftwareCost(vc cir.Instr) float64 {
	nic := cm.nic
	switch vc.Callee {
	case cir.VCGetHdr:
		return nic.ParseCycles
	case cir.VCHdrField, cir.VCSetField, cir.VCEmit:
		return nic.MetadataCycles
	case cir.VCPayloadLen:
		return 1
	case cir.VCPayloadByte:
		return cm.PerByteRead()
	case cir.VCChecksum:
		seg := cm.L4SegLen()
		line := float64(nic.Mems[nic.PktMem].LineBytes)
		if line <= 0 {
			line = 64
		}
		return 100 + seg + seg/line*cm.PktAccess()
	case cir.VCCksumUpdate:
		return 2*nic.MetadataCycles + 4
	case cir.VCFlowKey, cir.VCHash:
		return nic.HashCycles
	case cir.VCCrypto:
		// Software crypto: key schedule plus ~30 ALU per byte.
		return 200 + 64*30
	case cir.VCNow:
		return 1
	case cir.VCRandom:
		return 2
	case cir.VCDPIScan:
		// Payload-read and per-byte ALU share; the automaton fetch is priced
		// with the pattern state's placement.
		return cm.wl.AvgPayload * (cm.PerByteRead() + 2)
	case cir.VCMapGet:
		return 1
	default:
		// Table ops: hashing here, memory in appendStateOptions.
		if cir.VCalls[vc.Callee].StateRef {
			switch vc.Callee {
			case cir.VCMapLookup, cir.VCMapPut, cir.VCMapDelete, cir.VCSketchAdd, cir.VCSketchRead:
				return nic.HashCycles
			}
			return 0
		}
		return 0
	}
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
	entry := obj.KeySize + obj.ValueSize
	if entry <= 0 {
		entry = 8
	}
	line := cm.nic.Mems[region].LineBytes
	if line <= 0 {
		line = 64
	}
	lines := math.Ceil(float64(obj.Capacity*entry) / float64(line))
	// Sequential scan of the whole table hits its cache steadily once warm.
	acc, ok := cm.nic.CachedAccessCycles(cm.npu, region, false, int64(obj.Bytes()))
	if !ok {
		acc = cm.nic.Mems[region].LoadCycles
	}
	alu := cm.nic.Units[cm.npu].ClassCycles[cir.ClassALU]
	return lines*acc + float64(obj.Capacity)*2*alu
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
			// Flow-cache hits skip the software lookup entirely; misses pay
			// both the accelerator visit and the software path.
			miss := 1 - cm.wl.FlowReuse
			swLookup := cm.LookupCost(obj, region)
			fcCost := use.Lookups*(fcFixed+miss*swLookup) +
				cm.StateCost(obj, use, region) - use.Lookups*swLookup
			out = append(out, stateOption{
				region: region, flowCache: true, cost: fcCost,
				bytes: obj.Bytes(), fcEntries: fcEntries,
			})
		}
	}
	return out
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
	cost := use.Lookups * cm.LookupCost(obj, region)
	cost += use.Puts * 2 * acc
	cost += use.Incrs * 2 * acc
	cost += use.ArrOps * acc
	cost += use.Sketch * 4 * acc
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
		total += visits[i] * cm.NodeCost(&g.Nodes[i], m.NodeUnit[i])
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
			miss := 1 - cm.wl.FlowReuse
			sw := cm.LookupCost(obj, region)
			total += use.Lookups*(fcFixed+miss*sw) + cm.StateCost(obj, use, region) - use.Lookups*sw
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
