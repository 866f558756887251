package nicsim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"clara/internal/lnic"
	"clara/internal/nf"
	"clara/internal/packet"
)

// The per-byte memory walk the line-run scans replaced, kept as their
// oracle: payloadRead, memAccess with bookMem, load, loadLines and dpiScan
// exactly as they were, renamed with a ref prefix. Each payload byte
// resolves its own region, address and line and goes through memAccess;
// each load adds to e.now and e.bd in memory.

func (e *exec) refPayloadRead(i int) {
	s := e.s
	off := len(e.wire) - len(e.pkt.Payload) + i
	region := s.nic.PktMem
	addr := e.pktBase + uint64(off)
	if off >= s.nic.PktMemResident {
		region = s.nic.PktSpillMem
		addr = e.spillBase + uint64(off)
		if span := uint64(s.nic.Mems[region].Bytes); addr >= span {
			addr %= span
		}
	}
	line := int64(region)<<56 | s.lines[region].line(addr)
	if line == e.lastLine {
		// Same line as the previous byte: register-file speed.
		e.now++
		e.bd.Compute++
		return
	}
	e.lastLine = line
	e.now += s.refMemAccess(region, addr, false, &e.bd)
}

func (s *Sim) refMemAccess(region int, addr uint64, store bool, bd *Breakdown) float64 {
	p := &s.memCost[region]
	cost := p.load
	if store {
		cost = p.store
	}
	if c := s.caches[region]; c != nil && c.access(addr) {
		cost = p.hit
	}
	return s.refBookMem(region, s.memFaultRate(region), cost, bd)
}

func (s *Sim) refBookMem(region int, rate, cost float64, bd *Breakdown) float64 {
	if rate > 0 && s.frandFloat() < rate {
		s.noteMemFault(s.nic.Mems[region].Name)
		cost *= 2
	}
	if s.memCycles != nil {
		s.memCycles[region] += cost
	}
	bd.Mem += cost
	return cost
}

func (e *exec) refLoad(p *loadPort, addr uint64) {
	cost := p.load
	if p.c != nil && p.c.access(addr) {
		cost = p.hit
	}
	e.now += e.s.refBookMem(p.region, p.rate, cost, &e.bd)
}

func (e *exec) refLoadLines(region int, base uint64, n, step int) {
	p := e.s.loadPort(region)
	for off := 0; off < n; off += step {
		e.refLoad(&p, base+uint64(off))
	}
}

func (e *exec) refDPIScan(slot int) (uint64, error) {
	s := e.s
	p := s.slots[slot].p
	payload := e.pkt.Payload
	if m := s.runDPI; m > 0 && int64(len(payload)) > m {
		// DPI byte budget: scan only the first m payload bytes.
		payload = payload[:m]
	}
	rows := s.loadPort(p.region)
	next, outputs := p.ac.next, p.ac.outputs
	matches := 0
	state := int32(0)
	for i, b := range payload {
		state = next[state][b]
		e.refPayloadRead(i)
		e.refLoad(&rows, p.base+uint64(state)*1024)
		e.charge(2)
		matches += int(outputs[state])
	}
	return uint64(matches), nil
}

// slotNamed returns the state slot of s's state object name.
func slotNamed(t testing.TB, s *Sim, name string) int {
	t.Helper()
	for i, obj := range s.prog.State {
		if obj.Name == name {
			return i
		}
	}
	t.Fatalf("program %s has no state %q", s.prog.Name, name)
	return -1
}

// scanWalkNICs are the targets the scan walk is held to the per-byte walk
// on: two shipped profiles, non-power-of-two lines (48-byte packet lines,
// 96-byte spill lines), and a spill region of 4160 bytes, small enough that
// long payloads wrap past its end, with 64- and 96-byte lines.
var scanWalkNICs = []struct {
	name string
	nic  func() *lnic.LNIC
}{
	{"netronome", lnic.Netronome},
	{"armsoc", lnic.ARMSoC},
	{"oddlines", func() *lnic.LNIC {
		nic := lnic.Netronome()
		nic.Mems[nic.PktMem].LineBytes = 48
		nic.Mems[nic.PktSpillMem].LineBytes = 96
		return nic
	}},
	{"spill4160", func() *lnic.LNIC {
		nic := lnic.Netronome()
		nic.Mems[nic.PktSpillMem].Bytes = 4160
		return nic
	}},
	// 4160 is a whole number of 64-byte lines but not of 96-byte ones, so
	// here the wrap cuts a line short.
	{"spill4160-oddlines", func() *lnic.LNIC {
		nic := lnic.Netronome()
		nic.Mems[nic.PktMem].LineBytes = 48
		nic.Mems[nic.PktSpillMem].LineBytes = 96
		nic.Mems[nic.PktSpillMem].Bytes = 4160
		return nic
	}},
}

// scanWalkPair is two identically built Sims on the DPI NF, one walked by
// the production scans and one by the per-byte oracle.
type scanWalkPair struct {
	got, ref *Sim
	ge, re   *exec
}

func newScanWalkPair(t testing.TB, nic func() *lnic.LNIC, faults, timeline bool) *scanWalkPair {
	t.Helper()
	prog := nf.DPI().MustCompile()
	build := func() *Sim {
		n := nic()
		cfg := Config{NIC: n, Prog: prog, Place: DefaultPlacement(n, prog), Seed: 9, Timeline: timeline}
		if faults {
			// Every region faults often, so the draws of both walks
			// interleave on every access kind.
			cfg.Faults = &Faults{MemFault: map[string]float64{}, Seed: 13}
			for _, m := range n.Mems {
				cfg.Faults.MemFault[m.Name] = 0.1
			}
		}
		s, err := NewContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	p := &scanWalkPair{got: build(), ref: build()}
	p.ge, p.re = newExec(p.got), newExec(p.ref)
	return p
}

// packet starts packet pktIndex on both execs: hdr header bytes, then the
// payload.
func (p *scanWalkPair) packet(hdr int, payload []byte, pktIndex int) {
	wire := append(make([]byte, hdr), payload...)
	for _, e := range []*exec{p.ge, p.re} {
		e.reset(wire, pktIndex)
		e.pkt = &packet.Packet{Payload: wire[hdr:]}
		e.s.pktFaulted = false
		for r := range e.s.memCycles {
			e.s.memCycles[r] = 0
		}
	}
}

// dpi runs one DPI scan under byte budget on both walks.
func (p *scanWalkPair) dpi(t testing.TB, budget int64) {
	t.Helper()
	p.got.runDPI, p.ref.runDPI = budget, budget
	got, err := p.ge.dpiScan(slotNamed(t, p.got, "sigs"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.re.refDPIScan(slotNamed(t, p.ref, "sigs"))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("dpiScan counts %d matches, per-byte walk %d", got, want)
	}
}

// lines runs one LPM-style rule scan of entries entrySize-byte rules, one
// load per line, from base in region.
func (p *scanWalkPair) lines(region int, base uint64, entries, entrySize int) {
	step := int(p.got.lines[region].bytes)
	p.ge.loadLines(region, base, entries*entrySize, step)
	p.re.refLoadLines(region, base, entries*entrySize, step)
}

// read charges one payload byte read at offset i on both walks.
func (p *scanWalkPair) read(i int) {
	p.ge.payloadRead(i)
	p.re.refPayloadRead(i)
}

// check compares everything the two walks could have touched, bit for bit.
func (p *scanWalkPair) check(t testing.TB, what string) {
	t.Helper()
	g, r := p.ge, p.re
	bits := func(field string, a, b float64) {
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: %s %v (%#x), per-byte walk %v (%#x)", what, field, a, math.Float64bits(a), b, math.Float64bits(b))
		}
	}
	bits("now", g.now, r.now)
	bits("Compute", g.bd.Compute, r.bd.Compute)
	bits("Mem", g.bd.Mem, r.bd.Mem)
	bits("Accel", g.bd.Accel, r.bd.Accel)
	bits("Queue", g.bd.Queue, r.bd.Queue)
	bits("Fixed", g.bd.Fixed, r.bd.Fixed)
	for i := range g.s.memCycles {
		bits(fmt.Sprintf("memCycles[%d]", i), g.s.memCycles[i], r.s.memCycles[i])
	}
	if (g.s.memCycles == nil) != (r.s.memCycles == nil) {
		t.Fatalf("%s: tracer mismatch", what)
	}
	if g.lastLine != r.lastLine {
		t.Fatalf("%s: lastLine %#x, per-byte walk %#x", what, g.lastLine, r.lastLine)
	}
	for i, gc := range g.s.caches {
		rc := r.s.caches[i]
		if gc == nil {
			continue
		}
		if gc.hits != rc.hits || gc.misses != rc.misses || gc.clock != rc.clock ||
			gc.mruSlot != rc.mruSlot || gc.mruLine != rc.mruLine {
			t.Fatalf("%s: cache %d hits/misses/clock/mru %d/%d/%d/%d/%d, per-byte walk %d/%d/%d/%d/%d", what, i,
				gc.hits, gc.misses, gc.clock, gc.mruSlot, gc.mruLine, rc.hits, rc.misses, rc.clock, rc.mruSlot, rc.mruLine)
		}
	}
	if g.s.frngState != r.s.frngState {
		t.Fatalf("%s: fault RNG state %#x, per-byte walk %#x", what, g.s.frngState, r.s.frngState)
	}
	if !reflect.DeepEqual(g.s.report, r.s.report) || g.s.pktFaulted != r.s.pktFaulted {
		t.Fatalf("%s: fault report %+v (faulted %v), per-byte walk %+v (faulted %v)", what,
			g.s.report, g.s.pktFaulted, r.s.report, r.s.pktFaulted)
	}
}

// scanWalkPayload is n random bytes with pattern pieces spliced in, so the
// automaton walks deep states and matches.
func scanWalkPayload(rng *rand.Rand, n int, pats []string) []byte {
	b := make([]byte, n)
	rng.Read(b)
	for k := rng.Intn(6); k > 0 && n > 0; k-- {
		pat := pats[rng.Intn(len(pats))]
		copy(b[rng.Intn(n):], pat[:1+rng.Intn(len(pat))])
	}
	return b
}

// TestScanWalkMatchesPerByte holds the line-run DPI walk and the
// register-held rule scan to the per-byte walk they replaced: on random
// payloads, header lengths, DPI budgets, packet indices (so random base
// rotations, spill wraps included) and rule-table sizes in every region,
// with faults and the tracer each on and off, every clock, Breakdown field
// and tracer total matches bit for bit after each scan, as do lastLine, the
// caches' counters, clocks and MRU slots, the fault RNG and the fault report.
func TestScanWalkMatchesPerByte(t *testing.T) {
	pats := nf.DPI().MustCompile().Patterns["sigs"]
	for _, n := range scanWalkNICs {
		for _, faults := range []bool{false, true} {
			for _, timeline := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/faults=%v/timeline=%v", n.name, faults, timeline), func(t *testing.T) {
					p := newScanWalkPair(t, n.nic, faults, timeline)
					rng := rand.New(rand.NewSource(int64(len(n.name))*31 + 7))
					regions := len(p.got.nic.Mems)
					for pkt := 0; pkt < 60; pkt++ {
						size := rng.Intn(3200)
						if pkt%4 == 0 {
							size = rng.Intn(80)
						}
						pktIndex := rng.Intn(1 << 20)
						p.packet(14+rng.Intn(90), scanWalkPayload(rng, size, pats), pktIndex)
						for op := 0; op < 3; op++ {
							what := fmt.Sprintf("packet %d (index %d, %d bytes) op %d", pkt, pktIndex, size, op)
							switch rng.Intn(4) {
							case 0, 1:
								budgets := []int64{0, 1, int64(rng.Intn(size + 1)), int64(size) + 3}
								p.dpi(t, budgets[rng.Intn(len(budgets))])
							case 2:
								entries := []int{0, 1, 7, 1000, 10000}[rng.Intn(5)]
								p.lines(rng.Intn(regions), uint64(rng.Intn(1<<16)), entries, 8+rng.Intn(9))
							case 3:
								if size > 0 {
									p.read(rng.Intn(size))
								}
							}
							p.check(t, what)
						}
					}
					if faults && len(p.got.report.MemFaults) == 0 {
						t.Error("fault arm injected no memory faults")
					}
				})
			}
		}
	}
}

// FuzzScanWalkMatchesPerByte is TestScanWalkMatchesPerByte's randomized arm:
// the fuzzer picks the target, faults, tracer, packet index, header length,
// DPI budget, rule-table size and payload bytes of two packets.
func FuzzScanWalkMatchesPerByte(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x03\x01\x00\xff\xff\x20\x00\x10attack exploit attack"))
	f.Add(append([]byte{1, 3, 9, 0, 0, 40, 5, 0}, make([]byte, 3000)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) int {
			if i < len(data) {
				return int(data[i])
			}
			return 0
		}
		n := scanWalkNICs[at(0)%len(scanWalkNICs)]
		p := newScanWalkPair(t, n.nic, at(1)&1 != 0, at(1)&2 != 0)
		pktIndex := at(2)<<12 | at(3)<<4 | at(4)
		hdr := 14 + at(5)%90
		payload := []byte{}
		if len(data) > 8 {
			payload = data[8:]
		}
		for pkt := 0; pkt < 2; pkt++ {
			p.packet(hdr, payload, pktIndex+pkt)
			p.dpi(t, int64(at(6))*8)
			p.lines(at(7)%len(p.got.nic.Mems), uint64(pktIndex), at(6)*40, 8)
			p.dpi(t, 0)
			p.check(t, fmt.Sprintf("packet %d", pkt))
		}
	})
}
