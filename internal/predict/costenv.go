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
// program, the mapping and the NIC is resolved when it is built, and reset
// clears the per-class tallies before each class runs.
type costEnv struct {
	sem symexec.Env
	m   *mapper.Mapping
	nic *lnic.LNIC
	wl  mapper.Workload
	cm  *mapper.CostModel
	npu *lnic.ComputeUnit

	// states binds each state slot (cir.Instr.Slot) to its placement;
	// accels holds the first unit of each accelerator class, nil when the
	// NIC has none, and accelUnits how many units the class has. pktAccess
	// prices a packet-memory line read; pktLine is the line size and hdr
	// the average header length, which place payload bytes on lines.
	states     []boundState
	accels     [numAccels]*lnic.ComputeUnit
	accelUnits [numAccels]int
	pktLine    float64
	pktAccess  float64
	hdr        float64

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

func newCostEnv(prog *cir.Program, m *mapper.Mapping, nic *lnic.LNIC, npu *lnic.ComputeUnit, wl mapper.Workload, cm *mapper.CostModel, resourceLoad bool) *costEnv {
	e := &costEnv{
		m: m, nic: nic, wl: wl, cm: cm, npu: npu,
		states:      make([]boundState, len(prog.State)),
		latched:     make([]bool, len(prog.State)),
		memAccesses: make([]float64, len(nic.Mems)),
		pktLine:     float64(nic.Mems[nic.PktMem].LineSize()),
		pktAccess:   cm.PktAccess(),
		hdr:         wl.AvgWire - wl.AvgPayload,
	}
	if resourceLoad {
		e.memCycles = make([]float64, len(nic.Mems))
	}
	for k := range e.accels {
		for j := range nic.Units {
			if u := &nic.Units[j]; u.Kind == lnic.UnitAccel && u.AccelClass == accelClass[k] {
				if e.accelUnits[k]++; e.accels[k] == nil {
					e.accels[k] = u
				}
			}
		}
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
	return e
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
	if e.npu != nil {
		coreNJ = e.npu.NJPerCycle
	}
	total := e.compute*coreNJ + e.memStall*0.1*coreNJ
	for region, n := range e.memAccesses {
		if n != 0 {
			total += n * e.nic.Mems[region].NJPerAccess
		}
	}
	for k, uses := range e.accelUses {
		if uses > 0 {
			total += e.accelSvc[k] * e.accels[k].NJPerCycle
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

// VCall prices the call through the rule (lnic.VCallPrice) at this class's
// expectations and delegates its value to the symbolic environment. Byte
// arguments are the symbolic ones (crypto length, payload index) or the
// workload's averages (L4 segment, DPI scan); flags come from the class's
// path (headers parsed, entries latched) and its attributes (flow seen).
func (e *costEnv) VCall(in *cir.Instr, args []uint64) (uint64, error) {
	q := lnic.VCallIn{ParseOnEngine: e.m.ParseOnEngine}
	var s *boundState
	var probe, touch float64 // expected cycles of one probe and one touch
	if cir.VCalls[in.Callee].StateRef {
		var err error
		if s, err = e.state(in); err != nil {
			return 0, err
		}
		q.Region, q.Entries, q.EntryBytes = s.region, s.obj.Capacity, lnic.EntryBytes(*s.obj)
		q.OnAccel = s.flowCache && e.accels[accelFlowCache] != nil
		probe, touch = s.access, s.access
	}
	seen := e.sem.Attrs().FlowSeen
	w := 1.0
	switch in.Callee {
	case cir.VCGetHdr:
		p := args[0]
		if q.Warm = p >= uint64(len(e.parsed)) || e.parsed[p]; !q.Warm {
			e.parsed[p] = true
		}
	case cir.VCPayloadByte:
		// A byte past the payload, or on the line the last read fetched
		// (payload bytes sit behind hdr header bytes), reads no line.
		line := math.Floor((e.hdr + float64(args[0])) / e.pktLine)
		if q.Warm = args[0] >= uint64(e.sem.Attrs().PayloadLen); !q.Warm {
			q.Warm, e.lastLine = line == e.lastLine, line
		}
	case cir.VCChecksum:
		q.Bytes, q.OnAccel = e.cm.L4SegLen(), e.m.ChecksumOnAccel && e.accels[accelChecksum] != nil
	case cir.VCCrypto:
		q.Bytes, q.OnAccel = float64(args[1]), e.m.CryptoOnAccel && e.accels[accelCrypto] != nil
	case cir.VCMapLookup:
		if q.Warm = seen; !seen {
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
		q.Warm = e.latched[in.Slot]
		e.latched[in.Slot] = true
	case cir.VCLPMLookup:
		touch = e.cm.ScanAccess(*s.obj, s.region)
		if q.OnAccel {
			// Unlike stateful map lookups, the LPM's control flow does not
			// branch on flow history, so cache hits are not a path property
			// — price the expected hit share directly.
			q.Warm = true
			e.book(e.nic.VCallPrice(e.npu, in.Callee, q), e.wl.FlowReuse, q.Region, probe, touch)
			q.Warm, w = false, 1-e.wl.FlowReuse
		}
	case cir.VCDPIScan:
		q.Bytes, q.Offset = e.wl.AvgPayload, e.hdr
	}
	e.book(e.nic.VCallPrice(e.npu, in.Callee, q), w, q.Region, probe, touch)
	return e.sem.VCall(in, args)
}

// book charges w times price p: the accelerator visit, the compute, packet
// lines at pktAccess, and probes and touches into region at the given
// expected cycles each.
func (e *costEnv) book(p lnic.VCallPrice, w float64, region int, probe, touch float64) {
	for k := range accelClass {
		if accelClass[k] == p.Accel {
			svc := e.accels[k].ServiceCycles(p.AccelBytes)
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
