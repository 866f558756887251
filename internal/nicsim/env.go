package nicsim

import (
	"fmt"

	"clara/internal/cir"
	"clara/internal/lnic"
	"clara/internal/packet"
)

// exec is the per-packet execution context: it implements cir.Env, charging
// cycles to e.now as the compiled engine walks the program. Instructions
// other than vcalls are priced by the engine through meter, which books
// into this exec's clock, Breakdown.Compute and step count.
type exec struct {
	s     *Sim
	meter cir.Meter
	// pkt points at the trace's shared decoded packet (read-only) until the
	// NF writes a header field, when writeField copies it into pktCopy
	// (copy-on-write): most NFs never write headers, and skipping the
	// ~200-byte struct copy per packet is a measurable win. The corruption
	// path decodes straight into pktCopy (owned from the start), since its
	// wire bytes differ from the cached decode's.
	pkt      *packet.Packet
	pktCopy  packet.Packet
	pktOwned bool
	wire     []byte

	now     float64
	bd      Breakdown
	emitted bool
	steps   int64 // instructions executed (budget-usage accounting)

	parsed   [8]bool     // indexed by proto constant; charged once per packet
	latched  []*mapEntry // per state slot: the map entry this packet last touched (the Sim's latch)
	lastLine int64       // last packet-memory line key touched (streaming amortization), noLine at packet start

	// pktBase and spillBase are the packet's simulated base addresses in the
	// packet and spill regions, rotated per packet so consecutive packets do
	// not alias; spillBase is already reduced modulo the spill region.
	pktBase, spillBase uint64
}

// noLine is the lastLine of a packet that has read no payload yet. Line keys
// are region<<56 | line, never negative, so the first read always prices.
const noLine = -1

// newExec builds the packet context for s, its meter aimed at its own
// clock, compute share and step count.
func newExec(s *Sim) *exec {
	e := &exec{s: s, latched: s.latch}
	e.meter = cir.Meter{Prices: &s.costByOp, Clock: &e.now, Compute: &e.bd.Compute, Steps: &e.steps}
	return e
}

// reset re-arms the exec for the next packet, keeping the Sim pointer, the
// meter and the latched-entry slots (cleared, not reallocated). Every other
// field is restored to what a freshly built exec would hold EXCEPT pktCopy,
// which is dead until writeField or the corruption path (re)own it: skipping
// it here avoids zeroing and write-barriering the largest field twice per
// packet.
func (e *exec) reset(wire []byte, pktIndex int) {
	clear(e.latched)
	e.pkt = nil // the caller points it at this packet's decode before any use
	e.pktOwned = false
	e.wire = wire
	e.now = 0
	e.bd = Breakdown{}
	e.emitted = false
	e.steps = 0
	e.parsed = [8]bool{}
	e.lastLine = noLine
	e.pktBase = uint64(pktIndex) * 2048 % e.s.pktSpanMod
	e.spillBase = uint64(pktIndex) * 4096 % uint64(e.s.nic.Mems[e.s.nic.PktSpillMem].Bytes)
}

// payloadRead charges one payload byte read at payload offset i, amortized
// by memory line for sequential access, honoring tail spill to the
// secondary packet region for large packets (§3.2).
func (e *exec) payloadRead(i int) {
	region, addr, line, _ := e.payloadLine(len(e.wire) - len(e.pkt.Payload) + i)
	if line == e.lastLine {
		e.charge(e.s.vcCycles[1][cir.VCPayloadByte])
		return
	}
	e.lastLine = line
	e.now += e.s.memAccess(region, addr, false, &e.bd)
}

// payloadLine resolves the wire byte at off to its packet region, address
// and line key (region<<56 | line), and counts the bytes from off on that
// share that line: a run ends at the line's end, at the resident boundary
// and where the spill region wraps to address 0.
func (e *exec) payloadLine(off int) (region int, addr uint64, line int64, run int) {
	s := e.s
	region = s.nic.PktMem
	addr = e.pktBase + uint64(off)
	limit := int64(s.nic.PktMemResident - off)
	if off >= s.nic.PktMemResident {
		region = s.nic.PktSpillMem
		addr = e.spillBase + uint64(off)
		span := uint64(s.nic.Mems[region].Bytes)
		if addr >= span {
			addr %= span
		}
		limit = int64(span - addr)
	}
	g := s.lines[region]
	ln := g.line(addr)
	return region, addr, int64(region)<<56 | ln, int(min(limit, (ln+1)*g.bytes-int64(addr)))
}

func (e *exec) charge(c float64) {
	e.now += c
	e.bd.Compute += c
}

// flowHash returns the packet's direction-sensitive flow key.
func (e *exec) flowHash() uint64 {
	f, ok := e.pkt.Flow()
	if !ok {
		return 0x517cc1b727220a95 // stable non-flow key
	}
	return f.Hash()
}

// l4SegmentLen returns the L4 segment length (header + payload) for
// checksum costing.
func (e *exec) l4SegmentLen() int {
	switch {
	case e.pkt.HasTCP:
		return e.pkt.TCP.HeaderLen() + len(e.pkt.Payload)
	case e.pkt.HasUDP:
		return packet.UDPLen + len(e.pkt.Payload)
	default:
		return len(e.pkt.Payload)
	}
}

// VCall implements cir.Env. Charges come from the price rule: vcCycles for
// the fixed ones, lnic.VCallPrice per call for the byte-dependent ones.
func (e *exec) VCall(in *cir.Instr, args []uint64) (uint64, error) {
	s := e.s
	switch in.Callee {
	case cir.VCGetHdr:
		proto, warm := args[0], 1
		if proto < uint64(len(e.parsed)) && !e.parsed[proto] {
			e.parsed[proto], warm = true, 0
		}
		e.charge(s.vcCycles[warm][cir.VCGetHdr])
		if e.hasProto(proto) {
			return 1, nil
		}
		return 0, nil

	case cir.VCHdrField:
		e.charge(s.vcCycles[0][cir.VCHdrField])
		return e.readField(args[0], args[1]), nil

	case cir.VCSetField:
		e.charge(s.vcCycles[0][cir.VCSetField])
		e.writeField(args[0], args[1], args[2])
		return 0, nil

	case cir.VCPayloadLen:
		e.charge(s.vcCycles[0][cir.VCPayloadLen])
		return uint64(len(e.pkt.Payload)), nil

	case cir.VCPayloadByte:
		i := int(args[0])
		if i < 0 || i >= len(e.pkt.Payload) {
			e.charge(s.vcCycles[1][cir.VCPayloadByte])
			return 0, nil
		}
		e.payloadRead(i)
		return uint64(e.pkt.Payload[i]), nil

	case cir.VCChecksum:
		seg := e.l4SegmentLen()
		if !e.offload(s.cfg.Place.ChecksumOnAccel, s.cksumUnit, "checksum", seg) {
			e.charge(s.nic.VCallPrice(s.npu, cir.VCChecksum, lnic.VCallIn{Bytes: float64(seg)}).Compute)
			e.checksumReads(seg)
		}
		return 0, nil

	case cir.VCCksumUpdate:
		e.charge(s.vcCycles[0][cir.VCCksumUpdate])
		return 0, nil

	case cir.VCFlowKey:
		e.charge(s.vcCycles[0][cir.VCFlowKey])
		return e.flowHash(), nil

	case cir.VCMapLookup:
		return e.mapLookup(in.Slot, args[0])

	case cir.VCMapGet:
		e.charge(s.vcCycles[0][cir.VCMapGet])
		if ent := e.latched[in.Slot]; ent != nil {
			idx := int(args[0]) & 1
			return ent.v[idx], nil
		}
		return 0, nil

	case cir.VCMapPut:
		return e.mapPut(in.Slot, args)

	case cir.VCMapDelete:
		m := s.slots[in.Slot].m
		e.charge(s.vcCycles[0][cir.VCMapDelete])
		e.now += s.memAccess(m.region, m.bucketAddr(args[0]), true, &e.bd)
		m.del(args[0])
		e.latched[in.Slot] = nil
		if s.fc != nil {
			s.fc.invalidate(s.fcOwner(in.Slot), args[0])
		}
		return 0, nil

	case cir.VCMapIncr:
		return e.mapIncr(in.Slot, args)

	case cir.VCLPMLookup:
		return e.lpmLookup(in.Slot, uint32(args[0]))

	case cir.VCArrRead:
		a := s.slots[in.Slot].a
		i := a.idx(args[0])
		e.now += s.memAccess(a.region, a.addr(i), false, &e.bd)
		return a.vals[i], nil

	case cir.VCArrWrite:
		a := s.slots[in.Slot].a
		i := a.idx(args[0])
		e.now += s.memAccess(a.region, a.addr(i), true, &e.bd)
		a.vals[i] = args[1]
		return 0, nil

	case cir.VCSketchAdd, cir.VCSketchRead:
		sk := s.slots[in.Slot].sk
		e.charge(s.vcCycles[0][in.Callee])
		for r := 0; r < sk.rows; r++ {
			slot := sk.slot(r, args[0])
			e.now += s.memAccess(sk.region, sk.slotAddr(r, slot), in.Callee == cir.VCSketchAdd, &e.bd)
		}
		if in.Callee == cir.VCSketchAdd {
			return sk.add(args[0]), nil
		}
		return sk.read(args[0]), nil

	case cir.VCDPIScan:
		return e.dpiScan(in.Slot)

	case cir.VCCrypto:
		n := int(args[1])
		if !e.offload(s.cfg.Place.CryptoOnAccel, s.cryptoUnit, "crypto", n) {
			e.charge(s.nic.VCallPrice(s.npu, cir.VCCrypto, lnic.VCallIn{Bytes: float64(n)}).Compute)
		}
		return 0, nil

	case cir.VCHash:
		e.charge(s.vcCycles[0][cir.VCHash])
		h := args[0] * 0x9e3779b97f4a7c15
		h ^= h >> 32
		return h, nil

	case cir.VCNow:
		e.charge(s.vcCycles[0][cir.VCNow])
		return uint64(e.now), nil

	case cir.VCRandom:
		e.charge(s.vcCycles[0][cir.VCRandom])
		return s.random(), nil

	case cir.VCEmit:
		e.charge(s.vcCycles[0][cir.VCEmit])
		e.emitted = true
		return 0, nil

	default:
		return 0, fmt.Errorf("nicsim: unimplemented vcall %s", in.Callee)
	}
}

// offload serves a call of bytes bytes at accelerator unit of class when the
// placement puts it there, reporting whether the unit served it. An outage
// or a queue overflow falls back to the caller's software path.
func (e *exec) offload(placed bool, unit int, class string, bytes int) bool {
	if !placed || unit < 0 {
		return false
	}
	s := e.s
	if !s.accelDown(class) {
		if t, ok := s.accelVisit(unit, bytes, e.now, &e.bd); ok {
			e.now = t
			return true
		}
	}
	s.noteFallback(class)
	return false
}

// stateSlot binds one state object of the program: the table of its kind
// (the other pointers stay nil) and whether the flow cache fronts its
// lookups (Placement.UseFlowCache, resolved once at New).
type stateSlot struct {
	m  *mapState
	l  *lpmState
	a  *arrayState
	sk *sketchState
	p  *patternState
	fc bool
}

// fcOwner is the flow-cache owner of state slot: co-resident tenants share
// one flow cache, so entries are keyed by tenant as well as slot.
func (s *Sim) fcOwner(slot int) fcOwner {
	return fcOwner{tenant: int32(s.tenant), slot: int32(slot)}
}

func (e *exec) mapLookup(slot int, key uint64) (uint64, error) {
	s := e.s
	sl := &s.slots[slot]
	m := sl.m
	useFC := sl.fc && s.fc != nil
	if useFC && s.accelDown("flowcache") {
		s.noteFallback("flowcache") // outage: direct memory lookup
		useFC = false
	}
	if useFC {
		if t, ok := s.accelVisit(s.fcUnit, 0, e.now, &e.bd); ok {
			e.now = t
			if ent, hit := s.fc.get(s.fcOwner(slot), key); hit {
				if me, live := ent.(*mapEntry); live {
					e.latched[slot] = me
					return 1, nil
				}
			}
		} else {
			s.noteFallback("flowcache") // queue overflow: bypass this request
			useFC = false
		}
	}
	e.charge(s.vcCycles[0][cir.VCMapLookup])
	e.now += s.memAccess(m.region, m.bucketAddr(key), false, &e.bd)
	ent, found := m.lookup(key)
	if !found {
		e.latched[slot] = nil
		return 0, nil
	}
	e.now += s.memAccess(m.region, m.entryAddr(ent.idx), false, &e.bd)
	e.latched[slot] = ent
	if useFC {
		s.fc.put(s.fcOwner(slot), key, ent)
	}
	return 1, nil
}

func (e *exec) mapPut(slot int, args []uint64) (uint64, error) {
	s := e.s
	sl := &s.slots[slot]
	m := sl.m
	var v0, v1 uint64
	if len(args) > 1 {
		v0 = args[1]
	}
	if len(args) > 2 {
		v1 = args[2]
	}
	e.charge(s.vcCycles[0][cir.VCMapPut])
	e.now += s.memAccess(m.region, m.bucketAddr(args[0]), false, &e.bd)
	ent := m.put(args[0], v0, v1)
	e.now += s.memAccess(m.region, m.entryAddr(ent.idx), true, &e.bd)
	e.latched[slot] = ent
	if sl.fc && s.fc != nil && !s.accelDown("flowcache") {
		s.fc.put(s.fcOwner(slot), args[0], ent)
	}
	return 0, nil
}

func (e *exec) mapIncr(slot int, args []uint64) (uint64, error) {
	s := e.s
	m := s.slots[slot].m
	key, idx, delta := args[0], int(args[1])&1, args[2]
	ent := e.latched[slot]
	if ent == nil || m.entries[key] != ent {
		e.charge(s.vcCycles[0][cir.VCMapIncr])
		e.now += s.memAccess(m.region, m.bucketAddr(key), false, &e.bd)
		var found bool
		ent, found = m.lookup(key)
		if !found {
			ent = m.put(key, 0, 0)
		}
		e.latched[slot] = ent
	}
	// Read-modify-write of the entry.
	e.now += s.memAccess(m.region, m.entryAddr(ent.idx), false, &e.bd)
	ent.v[idx] += delta
	e.now += s.memAccess(m.region, m.entryAddr(ent.idx), true, &e.bd)
	return ent.v[idx], nil
}

func (e *exec) lpmLookup(slot int, addr uint32) (uint64, error) {
	s := e.s
	sl := &s.slots[slot]
	l := sl.l
	if sl.fc && s.fc != nil {
		if s.accelDown("flowcache") {
			s.noteFallback("flowcache") // outage: software scan
			return e.lpmScan(l, addr), nil
		}
		key := e.flowHash()
		t, ok := s.accelVisit(s.fcUnit, 0, e.now, &e.bd)
		if !ok {
			s.noteFallback("flowcache") // queue overflow: software scan
			return e.lpmScan(l, addr), nil
		}
		e.now = t
		if v, okc := s.fc.get(s.fcOwner(slot), key); okc {
			return v.(uint64), nil
		}
		nh := e.lpmScan(l, addr)
		s.fc.put(s.fcOwner(slot), key, nh)
		return nh, nil
	}
	return e.lpmScan(l, addr), nil
}

// lpmScan charges the software match/action scan over the rule table in
// memory — the expensive path the flow cache short-circuits (§2.1).
func (e *exec) lpmScan(l *lpmState, addr uint32) uint64 {
	s := e.s
	p := s.nic.VCallPrice(s.npu, cir.VCLPMLookup, lnic.VCallIn{
		Region: l.region, Entries: l.entries(), EntryBytes: lnic.EntryBytes(l.obj)})
	line := int(s.lines[l.region].bytes)
	e.loadLines(l.region, l.base, int(p.Touches)*line, line)
	e.charge(p.Compute)
	return l.lookup(addr)
}

// checksumReads charges the software checksum's read of a seg-byte L4
// segment: one payloadRead per packet-region line stride. After the first
// read, every step that stays resident lands on a fresh line, so those go
// through loadLines; the spilled tail, whose lines may be larger than the
// stride, keeps payloadRead's line amortization.
func (e *exec) checksumReads(seg int) {
	s := e.s
	step := int(s.lines[s.nic.PktMem].bytes)
	hdr := len(e.wire) - len(e.pkt.Payload)
	off := 0
	if resident := min(seg, s.nic.PktMemResident-hdr); resident > 0 {
		e.payloadRead(0)
		if off = step; off < resident {
			base := e.pktBase + uint64(hdr)
			e.loadLines(s.nic.PktMem, base+uint64(off), resident-off, step)
			last := off + (resident-off-1)/step*step
			e.lastLine = int64(s.nic.PktMem)<<56 | s.lines[s.nic.PktMem].line(base+uint64(last))
			off = last + step
		}
	}
	for ; off < seg; off += step {
		e.payloadRead(off)
	}
}

// loadPort is memAccess for loads from one region with the cache, price and
// fault-rate lookups resolved once, for loops that issue many loads there.
type loadPort struct {
	region          int
	c               *cache
	load, hit, rate float64
}

func (s *Sim) loadPort(region int) loadPort {
	p := s.memCost[region]
	return loadPort{region: region, c: s.caches[region], load: p.load, hit: p.hit,
		rate: s.memFaultRate(region)}
}

// loadLines charges one load per step bytes over [base, base+n) in region,
// in address order. The clock and Breakdown.Mem ride in locals and are
// written back once; each load keeps memAccess's cache access, fault draw
// and float additions, in the same order.
func (e *exec) loadLines(region int, base uint64, n, step int) {
	s := e.s
	p := s.loadPort(region)
	memCycles := s.memCycles
	now, mem := e.now, e.bd.Mem
	for off := 0; off < n; off += step {
		cost := p.load
		if p.c != nil && p.c.access(base+uint64(off)) {
			cost = p.hit
		}
		cost = s.faultRetry(region, p.rate, cost)
		if memCycles != nil {
			memCycles[region] += cost
		}
		mem += cost
		now += cost
	}
	e.now, e.bd.Mem = now, mem
}

// dpiScan walks the pattern automaton over the payload (up to the run's DPI
// byte budget). Each byte costs a payload read, one fetch of the next
// state's DFA row and lnic.DPIByteCycles of compute.
//
// The payload is walked one memory line at a time (see payloadLine): only a
// line's first byte can price an access, and only when the line differs
// from lastLine; every other byte costs one cycle. The clock, Compute, Mem
// and lastLine ride in locals and are written back when the scan ends, and
// every access keeps memAccess's cache access, fault draw and float
// additions, in the same per-byte order as a payloadRead per byte.
func (e *exec) dpiScan(slot int) (uint64, error) {
	s := e.s
	p := s.slots[slot].p
	payload := e.pkt.Payload
	hdr := len(e.wire) - len(payload)
	if m := s.runDPI; m > 0 && int64(len(payload)) > m {
		// DPI byte budget: scan only the first m payload bytes.
		payload = payload[:m]
	}
	rows := s.loadPort(p.region)
	memCycles := s.memCycles
	warm := s.vcCycles[1][cir.VCPayloadByte]
	next, outputs := p.ac.next, p.ac.outputs
	now, compute, mem, lastLine := e.now, e.bd.Compute, e.bd.Mem, e.lastLine
	matches := 0
	state := int32(0)
	for i := 0; i < len(payload); {
		region, addr, line, run := e.payloadLine(hdr + i)
		end := min(len(payload), i+run)
		priced := line != lastLine
		lastLine = line
		for ; i < end; i++ {
			state = next[state][payload[i]]
			if priced {
				priced = false
				pkt := s.loadPort(region)
				cost := pkt.load
				if pkt.c != nil && pkt.c.access(addr) {
					cost = pkt.hit
				}
				cost = s.faultRetry(region, pkt.rate, cost)
				if memCycles != nil {
					memCycles[region] += cost
				}
				mem += cost
				now += cost
			} else {
				now += warm
				compute += warm
			}
			cost := rows.load
			if rows.c != nil && rows.c.access(p.base+uint64(state)*1024) {
				cost = rows.hit
			}
			cost = s.faultRetry(p.region, rows.rate, cost)
			if memCycles != nil {
				memCycles[p.region] += cost
			}
			mem += cost
			now += cost
			now += lnic.DPIByteCycles
			compute += lnic.DPIByteCycles
			matches += int(outputs[state])
		}
	}
	e.now, e.bd.Compute, e.bd.Mem, e.lastLine = now, compute, mem, lastLine
	return uint64(matches), nil
}

func (e *exec) hasProto(proto uint64) bool {
	switch proto {
	case cir.ProtoEth:
		return e.pkt.HasEth
	case cir.ProtoIPv4:
		return e.pkt.HasIP4
	case cir.ProtoIPv6:
		return e.pkt.HasIP6
	case cir.ProtoTCP:
		return e.pkt.HasTCP
	case cir.ProtoUDP:
		return e.pkt.HasUDP
	case cir.ProtoICMP:
		return e.pkt.HasICMP
	default:
		return false
	}
}

// readField reads a header field. Transport fields (ports, flags, seq...)
// read from whichever L4 header the packet carries, so NFs gated on
// "tcp || udp" can use one code path, mirroring how NIC metadata exposes
// L4 fields.
func (e *exec) readField(proto, field uint64) uint64 {
	p := e.pkt
	switch field {
	case cir.FieldSrcAddr:
		if p.HasIP4 {
			return uint64(p.IP4.Src.Uint32())
		}
	case cir.FieldDstAddr:
		if p.HasIP4 {
			return uint64(p.IP4.Dst.Uint32())
		}
	case cir.FieldSrcPort:
		if p.HasTCP {
			return uint64(p.TCP.SrcPort)
		}
		if p.HasUDP {
			return uint64(p.UDP.SrcPort)
		}
	case cir.FieldDstPort:
		if p.HasTCP {
			return uint64(p.TCP.DstPort)
		}
		if p.HasUDP {
			return uint64(p.UDP.DstPort)
		}
	case cir.FieldProto:
		if p.HasIP4 {
			return uint64(p.IP4.Protocol)
		}
		if p.HasIP6 {
			return uint64(p.IP6.NextHeader)
		}
	case cir.FieldTTL:
		if p.HasIP4 {
			return uint64(p.IP4.TTL)
		}
		if p.HasIP6 {
			return uint64(p.IP6.HopLimit)
		}
	case cir.FieldLen:
		if p.HasIP4 {
			return uint64(p.IP4.Length)
		}
		return uint64(len(e.wire))
	case cir.FieldFlags:
		if p.HasTCP {
			return uint64(p.TCP.Flags)
		}
	case cir.FieldTOS:
		if p.HasIP4 {
			return uint64(p.IP4.TOS)
		}
	case cir.FieldID:
		if p.HasIP4 {
			return uint64(p.IP4.ID)
		}
	case cir.FieldSeq:
		if p.HasTCP {
			return uint64(p.TCP.Seq)
		}
	case cir.FieldAck:
		if p.HasTCP {
			return uint64(p.TCP.Ack)
		}
	case cir.FieldWindow:
		if p.HasTCP {
			return uint64(p.TCP.Window)
		}
	case cir.FieldEthType:
		if p.HasEth {
			return uint64(p.Eth.Type)
		}
	}
	return 0
}

func (e *exec) writeField(proto, field, val uint64) {
	if !e.pktOwned {
		// Copy-on-write: the decode this points at is shared (trace cache),
		// so the first header write copies it into exec-owned storage. The
		// wire/payload slices still alias the trace, which writeField never
		// touches.
		e.pktCopy = *e.pkt
		e.pkt = &e.pktCopy
		e.pktOwned = true
	}
	p := e.pkt
	switch field {
	case cir.FieldSrcAddr:
		if p.HasIP4 {
			p.IP4.Src = packet.IPv4FromUint32(uint32(val))
		}
	case cir.FieldDstAddr:
		if p.HasIP4 {
			p.IP4.Dst = packet.IPv4FromUint32(uint32(val))
		}
	case cir.FieldSrcPort:
		if p.HasTCP {
			p.TCP.SrcPort = uint16(val)
		} else if p.HasUDP {
			p.UDP.SrcPort = uint16(val)
		}
	case cir.FieldDstPort:
		if p.HasTCP {
			p.TCP.DstPort = uint16(val)
		} else if p.HasUDP {
			p.UDP.DstPort = uint16(val)
		}
	case cir.FieldTTL:
		if p.HasIP4 {
			p.IP4.TTL = uint8(val)
		} else if p.HasIP6 {
			p.IP6.HopLimit = uint8(val)
		}
	case cir.FieldTOS:
		if p.HasIP4 {
			p.IP4.TOS = uint8(val)
		}
	case cir.FieldID:
		if p.HasIP4 {
			p.IP4.ID = uint16(val)
		}
	case cir.FieldSeq:
		if p.HasTCP {
			p.TCP.Seq = uint32(val)
		}
	case cir.FieldAck:
		if p.HasTCP {
			p.TCP.Ack = uint32(val)
		}
	case cir.FieldWindow:
		if p.HasTCP {
			p.TCP.Window = uint16(val)
		}
	}
	_ = proto
}

// flowCache is the flow-cache accelerator's SRAM table: an LRU exact-match
// cache from (owner, key) to either a *mapEntry or an LPM result.
type flowCache struct {
	capacity     int
	entries      map[fcKey]*fcNode
	head, tail   *fcNode
	hits, misses uint64
}

// fcOwner names the state object a flow-cache entry belongs to: its slot in
// the tenant's program. Co-resident tenants share one cache, and their slots
// (like their state names) may coincide, so the tenant is part of the key.
type fcOwner struct {
	tenant, slot int32
}

type fcKey struct {
	owner fcOwner
	key   uint64
}

type fcNode struct {
	k          fcKey
	v          interface{}
	prev, next *fcNode
}

func newFlowCache(capacity int) *flowCache {
	if capacity <= 0 {
		capacity = 1024
	}
	return &flowCache{capacity: capacity, entries: map[fcKey]*fcNode{}}
}

func (f *flowCache) get(owner fcOwner, key uint64) (interface{}, bool) {
	n, ok := f.entries[fcKey{owner, key}]
	if !ok {
		f.misses++
		return nil, false
	}
	f.hits++
	f.moveFront(n)
	return n.v, true
}

func (f *flowCache) put(owner fcOwner, key uint64, v interface{}) {
	k := fcKey{owner, key}
	if n, ok := f.entries[k]; ok {
		n.v = v
		f.moveFront(n)
		return
	}
	n := &fcNode{k: k, v: v}
	f.entries[k] = n
	f.pushFront(n)
	if len(f.entries) > f.capacity {
		// Evict LRU.
		lru := f.tail
		f.unlink(lru)
		delete(f.entries, lru.k)
	}
}

// reset empties the cache and zeroes its counters without reallocating the
// entry map; the Sim pool relies on it.
func (f *flowCache) reset() {
	clear(f.entries)
	f.head, f.tail = nil, nil
	f.hits, f.misses = 0, 0
}

func (f *flowCache) invalidate(owner fcOwner, key uint64) {
	k := fcKey{owner, key}
	if n, ok := f.entries[k]; ok {
		f.unlink(n)
		delete(f.entries, k)
	}
}

func (f *flowCache) HitRate() float64 {
	total := f.hits + f.misses
	if total == 0 {
		return 0
	}
	return float64(f.hits) / float64(total)
}

func (f *flowCache) pushFront(n *fcNode) {
	n.prev = nil
	n.next = f.head
	if f.head != nil {
		f.head.prev = n
	}
	f.head = n
	if f.tail == nil {
		f.tail = n
	}
}

func (f *flowCache) unlink(n *fcNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		f.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		f.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (f *flowCache) moveFront(n *fcNode) {
	if f.head == n {
		return
	}
	f.unlink(n)
	f.pushFront(n)
}
