package predict

import (
	"fmt"

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
	// NIC has none, and accelUnits how many units the class has; pktLine
	// and pktAccess price packet-memory reads.
	states     []boundState
	accels     [numAccels]*lnic.ComputeUnit
	accelUnits [numAccels]int
	pktLine    float64
	pktAccess  float64

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
	parsed      []uint64  // headers parsed so far
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

// pricingUnit is the representative general core that prices instruction
// execution, with MAU stages standing in on core-less ASICs; nil when the NIC
// has neither.
func pricingUnit(nic *lnic.LNIC) *lnic.ComputeUnit {
	if id, ok := nic.PricingUnit(); ok {
		return &nic.Units[id]
	}
	return nil
}

func newCostEnv(prog *cir.Program, m *mapper.Mapping, nic *lnic.LNIC, npu *lnic.ComputeUnit, wl mapper.Workload, cm *mapper.CostModel, resourceLoad bool) *costEnv {
	e := &costEnv{
		m: m, nic: nic, wl: wl, cm: cm, npu: npu,
		states:      make([]boundState, len(prog.State)),
		memAccesses: make([]float64, len(nic.Mems)),
		pktLine:     float64(nic.Mems[nic.PktMem].LineBytes),
		pktAccess:   cm.PktAccess(),
	}
	if e.pktLine <= 0 {
		e.pktLine = 64
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
	e.parsed = e.parsed[:0]
	e.accelUses = [numAccels]float64{}
	e.accelSvc = [numAccels]float64{}
}

// meter books each instruction's price from prices into cycles, then into
// compute: the active core cycles the energy model charges at full power.
func (e *costEnv) meter(prices *cir.Prices) cir.Meter {
	return cir.Meter{Prices: prices, Clock: &e.cycles, Compute: &e.compute}
}

// accel books one visit of svc cycles to accelerator class k.
func (e *costEnv) accel(k int, svc float64) {
	e.cycles += svc
	e.accelUses[k]++
	e.accelSvc[k] += svc
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
	line := m.LineBytes
	if line <= 0 {
		line = 64
	}
	f := float64(s.obj.KeySize+s.obj.ValueSize) / float64(line)
	if f > 1 {
		f = 1
	}
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

// parse reports whether header proto was already parsed for this class,
// and marks it parsed.
func (e *costEnv) parse(proto uint64) bool {
	for _, p := range e.parsed {
		if p == proto {
			return true
		}
	}
	e.parsed = append(e.parsed, proto)
	return false
}

// VCall charges the expected cost of the call and delegates its value to
// the symbolic environment.
func (e *costEnv) VCall(in *cir.Instr, args []uint64) (uint64, error) {
	nic := e.nic
	seen := e.sem.Attrs().FlowSeen
	pktLine := e.pktLine
	switch in.Callee {
	case cir.VCGetHdr:
		if !e.parse(args[0]) {
			if e.m.ParseOnEngine {
				e.chargeCompute(nic.MetadataCycles)
			} else {
				e.chargeCompute(nic.ParseCycles)
			}
		} else {
			e.chargeCompute(nic.MetadataCycles)
		}

	case cir.VCHdrField, cir.VCSetField, cir.VCEmit:
		e.chargeCompute(nic.MetadataCycles)

	case cir.VCPayloadLen, cir.VCNow:
		e.chargeCompute(1)

	case cir.VCRandom:
		e.chargeCompute(2)

	case cir.VCPayloadByte:
		e.chargeCompute(1)
		e.chargeMem(nic.PktMem, 1/pktLine, e.pktAccess)

	case cir.VCChecksum:
		if u := e.accels[accelChecksum]; e.m.ChecksumOnAccel && u != nil {
			e.accel(accelChecksum, u.FixedCycles+u.PerByteCycles*e.cm.L4SegLen())
			break
		}
		seg := e.cm.L4SegLen()
		e.chargeCompute(100 + seg)
		e.chargeMem(nic.PktMem, seg/pktLine, e.pktAccess)

	case cir.VCCksumUpdate:
		e.chargeCompute(2*nic.MetadataCycles + 4)

	case cir.VCFlowKey, cir.VCHash:
		e.chargeCompute(nic.HashCycles)

	case cir.VCCrypto:
		n := float64(args[1])
		if u := e.accels[accelCrypto]; e.m.CryptoOnAccel && u != nil {
			e.accel(accelCrypto, u.FixedCycles+u.PerByteCycles*n)
			break
		}
		e.chargeCompute(200 + n*30)

	case cir.VCMapLookup:
		s, err := e.state(in)
		if err != nil {
			return 0, err
		}
		acc := s.access
		if !seen {
			// First packet of a flow probes a partially-warm bucket region.
			acc = e.missProbeAccess(s)
		}
		if u := e.accels[accelFlowCache]; s.flowCache && u != nil {
			e.accel(accelFlowCache, u.FixedCycles)
			if !seen {
				e.chargeCompute(nic.HashCycles)
				e.chargeMem(s.region, 1, acc) // software miss probe
			}
			break
		}
		e.chargeCompute(nic.HashCycles)
		e.chargeMem(s.region, 1, acc)
		if seen {
			e.chargeMem(s.region, 1, acc) // entry fetch on hit
		}

	case cir.VCMapGet:
		e.chargeCompute(1)

	case cir.VCMapPut:
		s, err := e.state(in)
		if err != nil {
			return 0, err
		}
		e.chargeCompute(nic.HashCycles)
		if !seen {
			// Fresh entry: the bucket line was just pulled in by the failed
			// lookup (warm); the entry itself is a compulsory first touch.
			e.chargeMem(s.region, 1, s.access)
			e.chargeMem(s.region, 1, e.newEntryAccess(s))
			break
		}
		e.chargeMem(s.region, 2, s.access)

	case cir.VCMapDelete:
		s, err := e.state(in)
		if err != nil {
			return 0, err
		}
		e.chargeCompute(nic.HashCycles)
		e.chargeMem(s.region, 1, s.access)

	case cir.VCMapIncr:
		s, err := e.state(in)
		if err != nil {
			return 0, err
		}
		e.chargeMem(s.region, 2, s.access)

	case cir.VCLPMLookup:
		s, err := e.state(in)
		if err != nil {
			return 0, err
		}
		entry := s.obj.KeySize + s.obj.ValueSize
		if entry <= 0 {
			entry = 8
		}
		line := nic.Mems[s.region].LineBytes
		if line <= 0 {
			line = 64
		}
		lines := float64((s.obj.Capacity*entry + line - 1) / line)
		alu := float64(s.obj.Capacity) * 2
		perLine := (e.cm.LPMScanCost(*s.obj, s.region) - alu) / lines
		if u := e.accels[accelFlowCache]; s.flowCache && u != nil {
			// Unlike stateful map lookups, the LPM's control flow does not
			// branch on flow history, so cache hits are not a path property
			// — price the expected miss share directly.
			e.accel(accelFlowCache, u.FixedCycles)
			miss := 1 - e.wl.FlowReuse
			e.chargeCompute(miss * alu)
			e.chargeMem(s.region, miss*lines, perLine)
			break
		}
		e.chargeCompute(alu)
		e.chargeMem(s.region, lines, perLine)

	case cir.VCArrRead, cir.VCArrWrite:
		s, err := e.state(in)
		if err != nil {
			return 0, err
		}
		e.chargeMem(s.region, 1, s.access)

	case cir.VCSketchAdd, cir.VCSketchRead:
		s, err := e.state(in)
		if err != nil {
			return 0, err
		}
		e.chargeCompute(nic.HashCycles)
		e.chargeMem(s.region, 4, s.access)

	case cir.VCDPIScan:
		s, err := e.state(in)
		if err != nil {
			return 0, err
		}
		n := e.wl.AvgPayload
		e.chargeCompute(n * 3) // per-byte ALU + payload-read compute share
		e.chargeMem(nic.PktMem, n/pktLine, e.pktAccess)
		e.chargeMem(s.region, n, s.access)
	}
	return e.sem.VCall(in, args)
}
