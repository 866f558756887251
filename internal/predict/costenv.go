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
type costEnv struct {
	sem  *symexec.Env
	prog *cir.Program
	m    *mapper.Mapping
	nic  *lnic.LNIC
	wl   mapper.Workload
	cm   *mapper.CostModel
	npu  *lnic.ComputeUnit

	cycles float64
	// Energy accounting (the §6 E3-style extension): compute holds active
	// core cycles, memStall the cycles spent waiting on memory (threads
	// yield, so stalls burn a fraction of core power), memAccesses counts
	// accesses per region, and accel time is tracked per class below.
	// memCycles splits memStall by region so the co-location predictor can
	// report per-region utilization (Prediction.ResourceLoad); nil — the
	// default — skips the tracking, keeping the solo Predict path free of
	// the extra map work.
	compute     float64
	memStall    float64
	memAccesses map[int]float64
	memCycles   map[int]float64 // nil unless Options.ResourceLoad
	parsed      map[uint64]bool
	accelUses   map[string]float64
	accelSvc    map[string]float64
}

// pricingUnit is the representative general core that prices instruction
// execution, with MAU stages standing in on core-less ASICs; nil when the NIC
// has neither.
func pricingUnit(nic *lnic.LNIC) *lnic.ComputeUnit {
	gp := nic.UnitsOfKind(lnic.UnitNPU)
	if len(gp) == 0 {
		gp = nic.UnitsOfKind(lnic.UnitMAU)
	}
	if len(gp) == 0 {
		return nil
	}
	return &nic.Units[gp[0]]
}

func newCostEnv(prog *cir.Program, m *mapper.Mapping, nic *lnic.LNIC, npu *lnic.ComputeUnit, wl mapper.Workload, cm *mapper.CostModel, a symexec.Attrs) *costEnv {
	return &costEnv{
		sem: symexec.NewEnv(a), prog: prog, m: m, nic: nic, wl: wl, cm: cm, npu: npu,
		parsed:      map[uint64]bool{},
		memAccesses: map[int]float64{},
		accelUses:   map[string]float64{},
		accelSvc:    map[string]float64{},
	}
}

// meter books each instruction's price from prices into cycles, then into
// compute: the active core cycles the energy model charges at full power.
func (e *costEnv) meter(prices *cir.Prices) cir.Meter {
	return cir.Meter{Prices: prices, Clock: &e.cycles, Compute: &e.compute}
}

func (e *costEnv) accel(class string, svc float64) {
	e.cycles += svc
	e.accelUses[class]++
	e.accelSvc[class] += svc
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
// accelerator's own coefficient.
func (e *costEnv) energyNJ() float64 {
	coreNJ := 0.0
	if e.npu != nil {
		coreNJ = e.npu.NJPerCycle
	}
	total := e.compute*coreNJ + e.memStall*0.1*coreNJ
	for region, n := range e.memAccesses {
		total += n * e.nic.Mems[region].NJPerAccess
	}
	for class, svc := range e.accelSvc {
		if ids := e.nic.Accelerators(class); len(ids) > 0 {
			total += svc * e.nic.Units[ids[0]].NJPerCycle
		}
	}
	return total
}

// newEntryAccess is the expected latency of touching a brand-new table
// entry: a compulsory miss, except that consecutive insertions share cache
// lines (entrySize/lineBytes of new entries open a fresh line).
func (e *costEnv) newEntryAccess(obj cir.StateObj, region int) float64 {
	m := &e.nic.Mems[region]
	if m.CacheBytes == 0 {
		return m.LoadCycles
	}
	line := m.LineBytes
	if line <= 0 {
		line = 64
	}
	f := float64(obj.KeySize+obj.ValueSize) / float64(line)
	if f > 1 {
		f = 1
	}
	warm := e.cm.StateAccess(obj, region)
	return f*m.LoadCycles + (1-f)*warm
}

// missProbeAccess is the expected bucket-read latency on a lookup miss:
// bucket lines are shared across many flows, so roughly half of first
// probes find their line already resident.
func (e *costEnv) missProbeAccess(obj cir.StateObj, region int) float64 {
	m := &e.nic.Mems[region]
	if m.CacheBytes == 0 {
		return m.LoadCycles
	}
	return 0.5 * (m.LoadCycles + e.cm.StateAccess(obj, region))
}

func (e *costEnv) stateObj(name string) (cir.StateObj, int, error) {
	obj, ok := e.prog.StateByName(name)
	if !ok {
		return cir.StateObj{}, 0, fmt.Errorf("predict: unknown state %q", name)
	}
	region, ok := e.m.StateMem[name]
	if !ok {
		region = len(e.nic.Mems) - 1
	}
	return obj, region, nil
}

// VCall charges the expected cost of the call and delegates its value to
// the symbolic environment.
func (e *costEnv) VCall(in *cir.Instr, args []uint64) (uint64, error) {
	nic := e.nic
	seen := e.sem.Attrs().FlowSeen
	pktLine := float64(nic.Mems[nic.PktMem].LineBytes)
	if pktLine <= 0 {
		pktLine = 64
	}
	switch in.Callee {
	case cir.VCGetHdr:
		if !e.parsed[args[0]] {
			e.parsed[args[0]] = true
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
		e.chargeMem(nic.PktMem, 1/pktLine, e.cm.PktAccess())

	case cir.VCChecksum:
		if e.m.ChecksumOnAccel {
			if ids := nic.Accelerators("checksum"); len(ids) > 0 {
				u := &nic.Units[ids[0]]
				e.accel("checksum", u.FixedCycles+u.PerByteCycles*e.cm.L4SegLen())
				break
			}
		}
		seg := e.cm.L4SegLen()
		e.chargeCompute(100 + seg)
		e.chargeMem(nic.PktMem, seg/pktLine, e.cm.PktAccess())

	case cir.VCCksumUpdate:
		e.chargeCompute(2*nic.MetadataCycles + 4)

	case cir.VCFlowKey, cir.VCHash:
		e.chargeCompute(nic.HashCycles)

	case cir.VCCrypto:
		n := float64(args[1])
		if e.m.CryptoOnAccel {
			if ids := nic.Accelerators("crypto"); len(ids) > 0 {
				u := &nic.Units[ids[0]]
				e.accel("crypto", u.FixedCycles+u.PerByteCycles*n)
				break
			}
		}
		e.chargeCompute(200 + n*30)

	case cir.VCMapLookup:
		obj, region, err := e.stateObj(in.State)
		if err != nil {
			return 0, err
		}
		acc := e.cm.StateAccess(obj, region)
		if !seen {
			// First packet of a flow probes a partially-warm bucket region.
			acc = e.missProbeAccess(obj, region)
		}
		if e.m.UseFlowCache[in.State] {
			if ids := nic.Accelerators("flowcache"); len(ids) > 0 {
				e.accel("flowcache", nic.Units[ids[0]].FixedCycles)
				if !seen {
					e.chargeCompute(nic.HashCycles)
					e.chargeMem(region, 1, acc) // software miss probe
				}
				break
			}
		}
		e.chargeCompute(nic.HashCycles)
		e.chargeMem(region, 1, acc)
		if seen {
			e.chargeMem(region, 1, acc) // entry fetch on hit
		}

	case cir.VCMapGet:
		e.chargeCompute(1)

	case cir.VCMapPut:
		obj, region, err := e.stateObj(in.State)
		if err != nil {
			return 0, err
		}
		acc := e.cm.StateAccess(obj, region)
		e.chargeCompute(nic.HashCycles)
		if !seen {
			// Fresh entry: the bucket line was just pulled in by the failed
			// lookup (warm); the entry itself is a compulsory first touch.
			e.chargeMem(region, 1, acc)
			e.chargeMem(region, 1, e.newEntryAccess(obj, region))
			break
		}
		e.chargeMem(region, 2, acc)

	case cir.VCMapDelete:
		obj, region, err := e.stateObj(in.State)
		if err != nil {
			return 0, err
		}
		e.chargeCompute(nic.HashCycles)
		e.chargeMem(region, 1, e.cm.StateAccess(obj, region))

	case cir.VCMapIncr:
		obj, region, err := e.stateObj(in.State)
		if err != nil {
			return 0, err
		}
		e.chargeMem(region, 2, e.cm.StateAccess(obj, region))

	case cir.VCLPMLookup:
		obj, region, err := e.stateObj(in.State)
		if err != nil {
			return 0, err
		}
		entry := obj.KeySize + obj.ValueSize
		if entry <= 0 {
			entry = 8
		}
		line := nic.Mems[region].LineBytes
		if line <= 0 {
			line = 64
		}
		lines := float64((obj.Capacity*entry + line - 1) / line)
		alu := float64(obj.Capacity) * 2
		perLine := (e.cm.LPMScanCost(obj, region) - alu) / lines
		scanMem := func() {
			e.chargeCompute(alu)
			e.chargeMem(region, lines, perLine)
		}
		if e.m.UseFlowCache[in.State] {
			if ids := nic.Accelerators("flowcache"); len(ids) > 0 {
				// Unlike stateful map lookups, the LPM's control flow does
				// not branch on flow history, so cache hits are not a path
				// property — price the expected miss share directly.
				e.accel("flowcache", nic.Units[ids[0]].FixedCycles)
				miss := 1 - e.wl.FlowReuse
				e.chargeCompute(miss * alu)
				e.chargeMem(region, miss*lines, perLine)
				break
			}
		}
		scanMem()

	case cir.VCArrRead, cir.VCArrWrite:
		obj, region, err := e.stateObj(in.State)
		if err != nil {
			return 0, err
		}
		e.chargeMem(region, 1, e.cm.StateAccess(obj, region))

	case cir.VCSketchAdd, cir.VCSketchRead:
		obj, region, err := e.stateObj(in.State)
		if err != nil {
			return 0, err
		}
		e.chargeCompute(nic.HashCycles)
		e.chargeMem(region, 4, e.cm.StateAccess(obj, region))

	case cir.VCDPIScan:
		obj, region, err := e.stateObj(in.State)
		if err != nil {
			return 0, err
		}
		acc := e.cm.StateAccess(obj, region)
		n := e.wl.AvgPayload
		e.chargeCompute(n * 3) // per-byte ALU + payload-read compute share
		e.chargeMem(nic.PktMem, n/pktLine, e.cm.PktAccess())
		e.chargeMem(region, n, acc)
	}
	return e.sem.VCall(in, args)
}
