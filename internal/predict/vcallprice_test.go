package predict

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"clara/internal/cir"
	"clara/internal/lnic"
	"clara/internal/mapper"
	"clara/internal/nicsim"
	"clara/internal/symexec"
	"clara/internal/workload"
)

// This file holds the simulator and the predictor to the one vcall price
// rule, lnic.VCallPrice. Each case runs a short straight-line program of
// vcalls on one idle, fault-free packet and compares three charges: the
// rule's, summed over the program's vcalls with the flags the test derives
// for each; the simulator's, read from the packet's Breakdown and timeline
// hops; and the predictor's, read from its cost environment with the
// workload set to the packet's sizes. A charge is the vcall compute, the
// memory touches per region and the accelerator visits.
//
// Touches are counted from the simulator's per-region memory cycles, so the
// state lives in an uncached region and packets stay resident in packet
// memory (which is uncached on every built-in target): there every access
// costs the same.

// vcallCase is one vcall priced on one target under one placement.
type vcallCase struct {
	target  string
	vc      cir.VCall
	accel   bool   // checksum/crypto on its accelerator, or the table behind the flow cache
	engine  bool   // headers parsed at the ingress engine
	warm    bool   // the cheap case: parsed header, read line, latched entry, seen flow
	payload int    // payload bytes of every packet
	arg     uint64 // crypto length, payload index or get_hdr protocol
}

func (c vcallCase) String() string {
	return fmt.Sprintf("%s/%s/accel=%v/engine=%v/warm=%v/payload=%d/arg=%d",
		c.target, c.vc, c.accel, c.engine, c.warm, c.payload, c.arg)
}

// hdrBytes is the generated TCP packets' header length: Ethernet, IPv4 and
// TCP without options.
const hdrBytes = 14 + 20 + 20

// step is one vcall of a case's program and the flag the rule prices it at.
type step struct {
	vc   cir.VCall
	args []uint64
	key  bool // the first argument is the flow key (a flow_key step precedes)
	warm bool
}

// charge is what a packet's vcalls cost.
type charge struct {
	compute float64
	touches map[string]float64 // per region name
	accel   []string           // "class:service" per visit, in order
}

func (c charge) String() string {
	return fmt.Sprintf("compute=%g touches=%v accel=%v", c.compute, c.touches, c.accel)
}

// applies reports whether the case's flags mean anything for its vcall on
// its target.
func (c vcallCase) applies(nic *lnic.LNIC) bool {
	if c.accel {
		class := cir.VCalls[c.vc].Accelerable
		if class == "" || len(nic.Accelerators(class)) == 0 {
			return false
		}
	}
	if c.engine && (c.vc != cir.VCGetHdr || len(nic.UnitsOfKind(lnic.UnitParser)) == 0) {
		return false
	}
	switch c.vc {
	case cir.VCGetHdr, cir.VCPayloadByte, cir.VCMapLookup, cir.VCMapIncr, cir.VCLPMLookup:
		return true
	}
	return !c.warm
}

// packets is how many packets of the flow the case runs; the last one is
// observed. A seen flow needs an earlier packet.
func (c vcallCase) packets() int {
	if c.warm && (c.vc == cir.VCMapLookup || c.vc == cir.VCLPMLookup) {
		return 2
	}
	return 1
}

// steps is the case's program with the flag each vcall is priced at.
func (c vcallCase) steps() []step {
	flowKey := step{vc: cir.VCFlowKey}
	switch c.vc {
	case cir.VCGetHdr:
		// arg is the protocol; the simulator parses the first eight.
		s := []step{{vc: cir.VCGetHdr, args: []uint64{c.arg}, warm: c.arg >= 8}}
		if c.warm {
			s = append(s, step{vc: cir.VCGetHdr, args: []uint64{c.arg}, warm: true})
		}
		return s
	case cir.VCPayloadByte:
		// A read past the payload, or on the line the previous read
		// fetched, costs no line read.
		i := c.arg
		s := []step{{vc: cir.VCPayloadByte, args: []uint64{i}, warm: i >= uint64(c.payload)}}
		if c.warm {
			line := func(i uint64) uint64 { return (hdrBytes + i) / 64 }
			warm := i+1 >= uint64(c.payload) || (i < uint64(c.payload) && line(i) == line(i+1))
			s = append(s, step{vc: cir.VCPayloadByte, args: []uint64{i + 1}, warm: warm})
		}
		return s
	case cir.VCHdrField:
		return []step{{vc: c.vc, args: []uint64{cir.ProtoIPv4, cir.FieldTTL}}}
	case cir.VCSetField:
		return []step{{vc: c.vc, args: []uint64{cir.ProtoIPv4, cir.FieldTTL, 9}}}
	case cir.VCChecksum:
		return []step{{vc: c.vc, args: []uint64{cir.ProtoTCP}}}
	case cir.VCCksumUpdate:
		return []step{{vc: c.vc, args: []uint64{cir.ProtoTCP, 1, 2}}}
	case cir.VCCrypto:
		return []step{{vc: c.vc, args: []uint64{0, c.arg}}}
	case cir.VCHash:
		return []step{{vc: c.vc, args: []uint64{7}}}
	case cir.VCEmit:
		return []step{{vc: c.vc, args: []uint64{0}}}
	case cir.VCMapLookup:
		// The put inserts the entry (and caches it) for the next packet.
		return []step{flowKey, {vc: c.vc, key: true, warm: c.warm}, {vc: cir.VCMapPut, key: true, args: []uint64{1, 1}}}
	case cir.VCMapPut:
		return []step{flowKey, {vc: c.vc, key: true, args: []uint64{1, 1}}}
	case cir.VCMapDelete, cir.VCSketchAdd, cir.VCSketchRead:
		return []step{flowKey, {vc: c.vc, key: true}}
	case cir.VCMapGet:
		return []step{{vc: c.vc, args: []uint64{0}}}
	case cir.VCMapIncr:
		s := []step{flowKey, {vc: c.vc, key: true, args: []uint64{0, 1}}}
		if c.warm {
			s = append(s, step{vc: c.vc, key: true, args: []uint64{0, 1}, warm: true})
		}
		return s
	case cir.VCLPMLookup:
		return []step{{vc: cir.VCHdrField, args: []uint64{cir.ProtoIPv4, cir.FieldDstAddr}},
			{vc: c.vc, key: true, warm: c.warm}}
	case cir.VCArrRead:
		return []step{{vc: c.vc, args: []uint64{3}}}
	case cir.VCArrWrite:
		return []step{{vc: c.vc, args: []uint64{3, 5}}}
	}
	return []step{{vc: c.vc}} // payload_len, flow_key, now, random, dpi_scan
}

// stateOf is the state object vc addresses, nil for stateless calls.
func stateOf(vc cir.VCall) *cir.StateObj {
	switch vc {
	case cir.VCMapLookup, cir.VCMapGet, cir.VCMapPut, cir.VCMapDelete, cir.VCMapIncr:
		return &cir.StateObj{Name: "t", Kind: cir.StateMap, KeySize: 13, ValueSize: 16, Capacity: 1024}
	case cir.VCLPMLookup:
		return &cir.StateObj{Name: "t", Kind: cir.StateLPM, KeySize: 4, ValueSize: 4, Capacity: 300}
	case cir.VCArrRead, cir.VCArrWrite:
		return &cir.StateObj{Name: "t", Kind: cir.StateArray, ValueSize: 8, Capacity: 64}
	case cir.VCSketchAdd, cir.VCSketchRead:
		return &cir.StateObj{Name: "t", Kind: cir.StateSketch, ValueSize: 4, Capacity: 1024}
	}
	return nil
}

// program builds the case's straight-line program: constant arguments,
// the vcalls in order, pass.
func (c vcallCase) program() (*cir.Program, error) {
	b := cir.NewBuilder("vcall-" + c.vc.String())
	st := ""
	if obj := stateOf(c.vc); obj != nil {
		st = b.DeclareState(*obj)
	} else if c.vc == cir.VCDPIScan {
		st = b.DeclarePatterns("t", []string{"attack", "evil"})
	}
	var key cir.Reg
	for _, s := range c.steps() {
		var args []cir.Reg
		if s.key {
			args = append(args, key)
		}
		for _, a := range s.args {
			args = append(args, b.Const(a))
		}
		ref := ""
		if cir.VCalls[s.vc].StateRef {
			ref = st
		}
		r := b.VCall(s.vc, ref, args...)
		if s.vc == cir.VCFlowKey || s.vc == cir.VCHdrField {
			key = r
		}
	}
	b.ReturnConst(cir.VerdictPass)
	return b.Program()
}

// stateRegion is where the case places its state: the first region the
// pricing unit reaches that has no cache, is not packet memory and holds
// the object.
func stateRegion(nic *lnic.LNIC, npu int, prog *cir.Program) (int, bool) {
	for r := range nic.Mems {
		m := &nic.Mems[r]
		if _, ok := nic.AccessCycles(npu, r, false); !ok || m.CacheBytes > 0 || r == nic.PktMem || r == nic.PktSpillMem {
			continue
		}
		if len(prog.State) == 0 || int64(prog.State[0].Bytes()) <= m.Bytes {
			return r, true
		}
	}
	return 0, false
}

// ruleCharge prices the case's vcalls through the rule.
func (c vcallCase) ruleCharge(nic *lnic.LNIC, region int) charge {
	npu, _ := nic.PricingUnit()
	u := &nic.Units[npu]
	ch := charge{touches: map[string]float64{}}
	obj := stateOf(c.vc)
	for _, s := range c.steps() {
		in := lnic.VCallIn{Warm: s.warm, ParseOnEngine: c.engine, Offset: hdrBytes, Region: region}
		switch s.vc {
		case cir.VCChecksum:
			in.Bytes, in.OnAccel = float64(20+c.payload), c.accel
		case cir.VCCrypto:
			in.Bytes, in.OnAccel = float64(c.arg), c.accel
		case cir.VCDPIScan:
			in.Bytes = float64(c.payload)
		case cir.VCMapLookup, cir.VCLPMLookup:
			in.OnAccel = c.accel
		}
		if obj != nil && obj.Kind == cir.StateLPM {
			in.Entries, in.EntryBytes = obj.Capacity, lnic.EntryBytes(*obj)
		}
		p := nic.VCallPrice(u, s.vc, in)
		ch.compute += p.Compute
		if p.PktLines != 0 {
			ch.touches[nic.Mems[nic.PktMem].Name] += p.PktLines
		}
		if n := p.Probes + p.Touches; n != 0 {
			ch.touches[nic.Mems[region].Name] += n
		}
		if p.Accel != "" {
			svc := nic.Units[nic.Accelerators(p.Accel)[0]].ServiceCycles(p.AccelBytes)
			ch.accel = append(ch.accel, fmt.Sprintf("%s:%g", p.Accel, svc))
		}
	}
	return ch
}

// constCycles is what the program's constant loads charge the pricing unit.
func constCycles(nic *lnic.LNIC, prog *cir.Program) float64 {
	npu, _ := nic.PricingUnit()
	prices := nic.InstrPrices(&nic.Units[npu])
	total := 0.0
	for _, b := range prog.Blocks {
		for _, in := range b.Instrs {
			if in.Op == cir.OpConst {
				total += prices[cir.OpConst]
			}
		}
	}
	return total
}

// checkVCallCase compares the rule, the simulator and the predictor on c.
// It reports false when the case does not apply to its target.
func checkVCallCase(t *testing.T, c vcallCase) bool {
	t.Helper()
	nic := lnic.Profiles()[c.target]()
	if !c.applies(nic) {
		return false
	}
	prog, err := c.program()
	if err != nil {
		t.Fatalf("%s: %v", c, err)
	}
	npu, _ := nic.PricingUnit()
	region, ok := stateRegion(nic, npu, prog)
	if !ok {
		return false
	}
	m := &mapper.Mapping{
		StateMem: map[string]int{}, UseFlowCache: map[string]bool{},
		ParseOnEngine:   c.engine,
		ChecksumOnAccel: c.accel && c.vc == cir.VCChecksum,
		CryptoOnAccel:   c.accel && c.vc == cir.VCCrypto,
	}
	preload := map[string]int{}
	for _, obj := range prog.State {
		m.StateMem[obj.Name] = region
		m.UseFlowCache[obj.Name] = c.accel
		if obj.Kind == cir.StateLPM {
			preload[obj.Name] = obj.Capacity
		}
	}
	tr, err := workload.GenerateContext(context.Background(), workload.Profile{Packets: c.packets(), RatePPS: 1000, Flows: 1,
		TCPFraction: 1, PayloadBytes: c.payload, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rule := c.ruleCharge(nic, region)

	sim, err := nicsim.NewContext(context.Background(), nicsim.Config{NIC: nic, Prog: prog, Place: nicsim.PlacementOf(m),
		Preload: preload, Seed: 1, Timeline: true})
	if err != nil {
		t.Fatalf("%s: %v", c, err)
	}
	res, err := sim.RunContext(context.Background(), tr)
	if err != nil || res.Errors > 0 {
		t.Fatalf("%s: simulate: %v (%d errors)", c, err, res.Errors)
	}
	last := len(res.Packets) - 1
	got := charge{compute: res.Packets[last].Breakdown.Compute - constCycles(nic, prog), touches: map[string]float64{}}
	for _, h := range res.Timeline.Hops {
		if h.Packet != last {
			continue
		}
		if name, ok := strings.CutPrefix(h.Stage, "mem:"); ok {
			r, _ := nic.MemByName(name)
			price, _ := nic.AccessCycles(npu, r, false)
			got.touches[name] = h.Dur / price
		} else if class, ok := strings.CutPrefix(h.Stage, "accel:"); ok {
			got.accel = append(got.accel, fmt.Sprintf("%s:%g", class, h.Dur))
		}
	}
	if !sameCharge(got, rule) {
		t.Errorf("%s: simulator %v, rule %v", c, got, rule)
	}

	wl := mapper.FromStats(tr.Stats())
	wl.FlowReuse = 0
	if c.packets() > 1 {
		wl.FlowReuse = 1
	}
	cm := mapper.NewCostModel(nic, wl)
	env := newCostEnv(prog, m, nic, &nic.Units[npu], wl, cm, false)
	prices := nic.InstrPrices(&nic.Units[npu])
	meter := env.meter(&prices)
	env.reset(symexec.Attrs{Proto: "tcp", SYN: c.packets() == 1, FlowSeen: c.packets() > 1, PayloadLen: c.payload})
	comp, err := cir.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := comp.Run(env, &cir.Hooks{Meter: &meter}); err != nil {
		t.Fatalf("%s: predict: %v", c, err)
	}
	pred := charge{compute: env.compute - constCycles(nic, prog), touches: map[string]float64{}}
	for r, n := range env.memAccesses {
		if n != 0 {
			pred.touches[nic.Mems[r].Name] = n
		}
	}
	for k, uses := range env.accelUses {
		for i := 0; i < int(uses); i++ {
			pred.accel = append(pred.accel, fmt.Sprintf("%s:%g", accelClass[k], env.accelSvc[k]/uses))
		}
	}
	if !sameCharge(pred, rule) {
		t.Errorf("%s: predictor %v, rule %v", c, pred, rule)
	}
	return true
}

func sameCharge(a, b charge) bool {
	near := func(x, y float64) bool { return math.Abs(x-y) <= 1e-9*math.Max(1, math.Abs(y)) }
	if !near(a.compute, b.compute) || len(a.touches) != len(b.touches) || fmt.Sprint(a.accel) != fmt.Sprint(b.accel) {
		return false
	}
	for r, n := range a.touches {
		if !near(n, b.touches[r]) {
			return false
		}
	}
	return true
}

// TestVCallPriceParity covers every vcall on every built-in target under
// every placement that applies: on and off its accelerator or the flow
// cache, headers parsed on the core or at the ingress engine, and the cold
// and warm case of each flag, at a small and a large payload.
func TestVCallPriceParity(t *testing.T) {
	checked := 0
	for _, target := range lnic.ProfileNames() {
		for vc := cir.VCall(1); vc < cir.NumVCalls; vc++ {
			for _, accel := range []bool{false, true} {
				for _, engine := range []bool{false, true} {
					for _, warm := range []bool{false, true} {
						for _, payload := range []int{40, 700} {
							// Parsed and unknown protocols; crypto lengths;
							// payload indexes that end a line (packet byte
							// 63), sit inside one, or lie past the payload.
							args := []uint64{0}
							switch vc {
							case cir.VCGetHdr:
								args = []uint64{cir.ProtoTCP, 9}
							case cir.VCCrypto:
								args = []uint64{16, 100}
							case cir.VCPayloadByte:
								args = []uint64{9, 20, 1000}
							}
							for _, arg := range args {
								if checkVCallCase(t, vcallCase{target, vc, accel, engine, warm, payload, arg}) {
									checked++
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d cases", checked)
}

// FuzzVCallPriceParity draws a vcall, a target, a placement, a payload size,
// a byte argument and the warm flag, and checks simulator == rule ==
// predictor.
func FuzzVCallPriceParity(f *testing.F) {
	f.Add(uint8(cir.VCCrypto-1), uint8(2), false, false, false, uint16(300), uint16(16))
	f.Add(uint8(cir.VCGetHdr-1), uint8(0), false, true, true, uint16(64), uint16(9))
	f.Add(uint8(cir.VCDPIScan-1), uint8(1), false, false, false, uint16(513), uint16(0))
	f.Add(uint8(cir.VCMapIncr-1), uint8(0), false, false, true, uint16(64), uint16(0))
	f.Add(uint8(cir.VCLPMLookup-1), uint8(1), true, false, true, uint16(64), uint16(0))
	names := lnic.ProfileNames()
	f.Fuzz(func(t *testing.T, vc, target uint8, accel, engine, warm bool, payload, arg uint16) {
		c := vcallCase{
			target: names[int(target)%len(names)],
			vc:     cir.VCall(1 + int(vc)%int(cir.NumVCalls-1)),
			accel:  accel, engine: engine, warm: warm,
			payload: int(payload) % 900, // resident in packet memory on every target
			arg:     uint64(arg) % 2048,
		}
		checkVCallCase(t, c)
	})
}
