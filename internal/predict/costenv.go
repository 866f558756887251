package predict

import (
	"fmt"
	"math"

	"clara/internal/cir"
	"clara/internal/lnic"
	"clara/internal/mapper"
	"clara/internal/symexec"
)

// costEnv executes a packet class analytically: virtual-call semantics come
// from the symbolic environment, while costs come from the mapper's
// expectation-based cost model applied to the solved mapping. This is the
// predictor's counterpart of the simulator's exec — same control flow,
// expected values instead of concrete microarchitectural state.
//
// One costEnv serves every class of a prediction: what depends only on the
// program, the mapping, the NIC and the workload is resolved by init, and
// reset clears the per-class tallies before each class runs. A Pipeline
// keeps each costEnv with its engine, so the next prediction reuses its
// storage.
type costEnv struct {
	sem symexec.Env
	m   *mapper.Mapping
	nic *lnic.LNIC
	wl  mapper.Workload
	cm  *mapper.CostModel
	t   *targetTables

	// states binds each state slot (cir.Instr.Slot) to its placement.
	// sites numbers the program's (vcall, state slot) pairs, and prices
	// holds each one's price, cold at 2k and warm at 2k+1 for site k.
	// pktAccess prices a packet-memory line read; pktLine is the line size
	// and hdr the average header length, which place payload bytes on
	// lines.
	states    []boundState
	sites     *callSites
	prices    []lnic.VCallPrice
	pktLine   float64
	pktAccess float64
	hdr       float64

	cycles float64
	// Energy accounting (the §6 E3-style extension): compute holds active
	// core cycles, memStall the cycles spent waiting on memory (threads
	// yield, so stalls burn a fraction of core power), memAccesses counts
	// accesses per region, and accel time is tracked per class below.
	// memCycles splits memStall by region so the co-location predictor can
	// report per-region utilization (Prediction.ResourceLoad); nil — the
	// default — skips the tracking.
	compute     float64
	memStall    float64
	memAccesses []float64 // per region
	memCycles   []float64 // per region; nil unless Options.ResourceLoad
	parsed      [8]bool   // by proto constant, as the simulator's; larger protos never parse
	latched     []bool    // per state slot: the class latched a map entry
	lastLine    float64   // packet line of the last payload_byte read, -1 before any
	accelUses   [numAccels]float64
	accelSvc    [numAccels]float64
}

// Accelerator classes the predictor books time on, indexed in name order.
const (
	accelChecksum = iota
	accelCrypto
	accelFlowCache
	numAccels
)

var accelClass = [numAccels]string{"checksum", "crypto", "flowcache"}

// boundState is a state object with its placement under the mapping.
type boundState struct {
	obj       *cir.StateObj
	region    int
	flowCache bool
	access    float64 // expected cycles of one access (CostModel.StateAccess)
}

// init readies e for one prediction of prog, mapped by m onto nic, whose
// tables are t, under the workload, reusing e's storage. It prices every
// vcall site of prog, cold and warm, except crypto's, whose price depends
// on the call's own length argument.
func (e *costEnv) init(t *targetTables, sites *callSites, prog *cir.Program, m *mapper.Mapping, nic *lnic.LNIC, wl mapper.Workload, cm *mapper.CostModel, resourceLoad bool) {
	// Field by field, keeping the storage: the per-class tallies are reset
	// before every class.
	e.m, e.nic, e.wl, e.cm, e.t, e.sites = m, nic, wl, cm, t, sites
	e.states = resized(e.states, len(prog.State))
	e.prices = resized(e.prices, 2*len(sites.list))
	e.latched = resized(e.latched, len(prog.State))
	e.memAccesses = resized(e.memAccesses, len(nic.Mems))
	e.pktLine = float64(nic.Mems[nic.PktMem].LineSize())
	e.pktAccess = cm.PktAccess()
	e.hdr = wl.AvgWire - wl.AvgPayload
	if resourceLoad {
		e.memCycles = resized(e.memCycles, len(nic.Mems))
	} else {
		e.memCycles = nil
	}
	for si := range prog.State {
		obj := &prog.State[si]
		region, ok := m.StateMem[obj.Name]
		if !ok {
			region = len(nic.Mems) - 1
		}
		e.states[si] = boundState{
			obj: obj, region: region, flowCache: m.UseFlowCache[obj.Name],
			access: cm.StateAccess(*obj, region),
		}
	}
	for k, site := range sites.list {
		if site.vc == cir.VCCrypto {
			continue
		}
		var s *boundState
		if site.slot >= 0 {
			s = &e.states[site.slot]
		}
		q := e.vcallIn(site.vc, s)
		e.prices[2*k] = nic.VCallPrice(t.npu, site.vc, q)
		q.Warm = true
		e.prices[2*k+1] = nic.VCallPrice(t.npu, site.vc, q)
	}
}

// resized returns s with length n, every element zero, reusing its storage
// when it has room.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// reset readies e for the next class, with attribute valuation a.
func (e *costEnv) reset(a symexec.Attrs) {
	e.sem.Reset(a)
	e.cycles, e.compute, e.memStall = 0, 0, 0
	clear(e.memAccesses)
	clear(e.memCycles)
	e.parsed = [8]bool{}
	clear(e.latched)
	e.lastLine = -1
	e.accelUses = [numAccels]float64{}
	e.accelSvc = [numAccels]float64{}
}

// meter books each instruction's price from prices into cycles, then into
// compute: the active core cycles the energy model charges at full power.
func (e *costEnv) meter(prices *cir.Prices) cir.Meter {
	return cir.Meter{Prices: prices, Clock: &e.cycles, Compute: &e.compute}
}

// chargeCompute books active core cycles.
func (e *costEnv) chargeCompute(c float64) {
	e.cycles += c
	e.compute += c
}

// chargeMem books n memory accesses into region at perAccess cycles each.
func (e *costEnv) chargeMem(region int, n, perAccess float64) {
	e.cycles += n * perAccess
	e.memStall += n * perAccess
	e.memAccesses[region] += n
	if e.memCycles != nil {
		e.memCycles[region] += n * perAccess
	}
}

// energyNJ totals the class's energy under the coefficient model: active
// core cycles at full unit power, memory-stall cycles at 10% (threads
// yield), per-access memory energy, and accelerator service at the
// accelerator's own coefficient. Regions, then accelerator classes, are
// summed in index order.
func (e *costEnv) energyNJ() float64 {
	coreNJ := 0.0
	if e.t.npu != nil {
		coreNJ = e.t.npu.NJPerCycle
	}
	total := e.compute*coreNJ + e.memStall*0.1*coreNJ
	for region, n := range e.memAccesses {
		if n != 0 {
			total += n * e.nic.Mems[region].NJPerAccess
		}
	}
	for k, uses := range e.accelUses {
		if uses > 0 {
			total += e.accelSvc[k] * e.t.accels[k].NJPerCycle
		}
	}
	return total
}

// newEntryAccess is the expected latency of touching a brand-new table
// entry: a compulsory miss, except that consecutive insertions share cache
// lines (entrySize/lineBytes of new entries open a fresh line).
func (e *costEnv) newEntryAccess(s *boundState) float64 {
	m := &e.nic.Mems[s.region]
	if m.CacheBytes == 0 {
		return m.LoadCycles
	}
	f := min(float64(s.obj.KeySize+s.obj.ValueSize)/float64(m.LineSize()), 1)
	return f*m.LoadCycles + (1-f)*s.access
}

// missProbeAccess is the expected bucket-read latency on a lookup miss:
// bucket lines are shared across many flows, so roughly half of first
// probes find their line already resident.
func (e *costEnv) missProbeAccess(s *boundState) float64 {
	m := &e.nic.Mems[s.region]
	if m.CacheBytes == 0 {
		return m.LoadCycles
	}
	return 0.5 * (m.LoadCycles + s.access)
}

// state returns the placement of the state in references.
func (e *costEnv) state(in *cir.Instr) (*boundState, error) {
	if s := in.Slot; s >= 0 && s < len(e.states) && e.states[s].obj.Name == in.State {
		return &e.states[s], nil
	}
	return nil, fmt.Errorf("predict: unknown state %q", in.State)
}

// vcallIn is what a call of vc on state s (nil for a call that addresses
// none) is priced at besides its warm flag, and besides the length of a
// crypto call. Byte arguments are the workload's averages (L4 segment, DPI
// scan); placements come from the mapping.
func (e *costEnv) vcallIn(vc cir.VCall, s *boundState) lnic.VCallIn {
	q := lnic.VCallIn{ParseOnEngine: e.m.ParseOnEngine}
	if s != nil {
		q.Region, q.Entries, q.EntryBytes = s.region, s.obj.Capacity, lnic.EntryBytes(*s.obj)
		q.OnAccel = e.onFlowCache(s)
	}
	switch vc {
	case cir.VCChecksum:
		q.Bytes, q.OnAccel = e.cm.L4SegLen(), e.m.ChecksumOnAccel && e.t.accels[accelChecksum] != nil
	case cir.VCCrypto:
		q.OnAccel = e.m.CryptoOnAccel && e.t.accels[accelCrypto] != nil
	case cir.VCDPIScan:
		q.Bytes, q.Offset = e.wl.AvgPayload, e.hdr
	}
	return q
}

// onFlowCache reports whether the flow cache fronts state s's lookups.
func (e *costEnv) onFlowCache(s *boundState) bool {
	return s.flowCache && e.t.accels[accelFlowCache] != nil
}

// VCall prices the call through the rule (lnic.VCallPrice) at this class's
// expectations and delegates its value to the symbolic environment. The
// price is the call's site's, cold or warm, which init resolved; only a
// crypto call is priced here, at its symbolic length. The warm flag comes
// from the class's path (headers parsed, entries latched) and its
// attributes (flow seen).
func (e *costEnv) VCall(in *cir.Instr, args []uint64) (uint64, error) {
	site := e.sites.site(in)
	if site < 0 {
		return 0, fmt.Errorf("predict: %s is not a vcall site of the program", in)
	}
	var s *boundState
	var region int
	var probe, touch float64 // expected cycles of one probe and one touch
	if cir.VCalls[in.Callee].StateRef {
		var err error
		if s, err = e.state(in); err != nil {
			return 0, err
		}
		region, probe, touch = s.region, s.access, s.access
	}
	seen := e.sem.Attrs().FlowSeen
	warm, w := false, 1.0
	switch in.Callee {
	case cir.VCGetHdr:
		p := args[0]
		if warm = p >= uint64(len(e.parsed)) || e.parsed[p]; !warm {
			e.parsed[p] = true
		}
	case cir.VCPayloadByte:
		// A byte past the payload, or on the line the last read fetched
		// (payload bytes sit behind hdr header bytes), reads no line.
		line := math.Floor((e.hdr + float64(args[0])) / e.pktLine)
		if warm = args[0] >= uint64(e.sem.Attrs().PayloadLen); !warm {
			warm, e.lastLine = line == e.lastLine, line
		}
	case cir.VCCrypto:
		q := e.vcallIn(in.Callee, nil)
		q.Bytes = float64(args[1])
		e.book(e.nic.VCallPrice(e.t.npu, in.Callee, q), w, region, probe, touch)
		return e.sem.VCall(in, args)
	case cir.VCMapLookup:
		if warm = seen; !seen {
			// First packet of a flow probes a partially-warm bucket region.
			probe = e.missProbeAccess(s)
		}
		e.latched[in.Slot] = seen
	case cir.VCMapPut:
		if !seen {
			// Fresh entry: the bucket line was just pulled in by the failed
			// lookup (warm); the entry itself is a compulsory first touch.
			touch = e.newEntryAccess(s)
		}
		e.latched[in.Slot] = true
	case cir.VCMapDelete:
		e.latched[in.Slot] = false
	case cir.VCMapIncr:
		warm = e.latched[in.Slot]
		e.latched[in.Slot] = true
	case cir.VCLPMLookup:
		touch = e.cm.ScanAccess(*s.obj, s.region)
		if e.onFlowCache(s) {
			// Unlike stateful map lookups, the LPM's control flow does not
			// branch on flow history, so cache hits are not a path property
			// — price the expected hit share directly.
			e.book(e.prices[2*site+1], e.wl.FlowReuse, region, probe, touch)
			w = 1 - e.wl.FlowReuse
		}
	}
	p := &e.prices[2*site]
	if warm {
		p = &e.prices[2*site+1]
	}
	e.book(*p, w, region, probe, touch)
	return e.sem.VCall(in, args)
}

// book charges w times price p: the accelerator visit, the compute, packet
// lines at pktAccess, and probes and touches into region at the given
// expected cycles each.
func (e *costEnv) book(p lnic.VCallPrice, w float64, region int, probe, touch float64) {
	for k := range accelClass {
		if accelClass[k] == p.Accel {
			svc := e.t.accels[k].ServiceCycles(p.AccelBytes)
			e.cycles += w * svc
			e.accelUses[k] += w
			e.accelSvc[k] += w * svc
		}
	}
	e.chargeCompute(w * p.Compute)
	e.chargeMem(e.nic.PktMem, w*p.PktLines, e.pktAccess)
	e.chargeMem(region, w*p.Probes, probe)
	e.chargeMem(region, w*p.Touches, touch)
}
