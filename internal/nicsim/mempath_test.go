package nicsim

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"sort"
	"testing"

	"clara/internal/lnic"
	"clara/internal/nf"
	"clara/internal/packet"
	"clara/internal/workload"
)

// memPathCase is one simulation whose every float the memory-path pin
// hashes. The cases cover each way the simulator prices memory: per-byte
// payload reads with tail spill (and its wrap past the spill region's end),
// the DPI automaton's row fetches, the LPM software scan behind flow-cache
// misses, the software checksum's line walk, sketch and array slots,
// fault-injected retries, and a NIC whose line sizes are not powers of two.
type memPathCase struct {
	name     string
	spec     nf.Spec
	nic      func() *lnic.LNIC
	place    func(*lnic.LNIC, Placement) Placement
	faults   *Faults
	timeline bool
	prof     func(*workload.Profile)
}

func memPathCases() []memPathCase {
	big := func(p *workload.Profile) {
		p.Packets = 400
		p.Flows = 200
		p.PayloadBytes = 1400
		p.PayloadJitter = 64
	}
	manyFlows := func(p *workload.Profile) {
		p.Packets = 600
		p.Flows = 65536
	}
	flowCache := func(nic *lnic.LNIC, p Placement) Placement {
		p.UseFlowCache = map[string]bool{"routes": true}
		return p
	}
	// oddLines gives the packet region 48-byte lines and the spill region
	// 96-byte ones: line numbers need a true division, and the checksum's
	// packet-region stride lands twice on some spill lines.
	oddLines := func() *lnic.LNIC {
		nic := lnic.Netronome()
		nic.Mems[nic.PktMem].LineBytes = 48
		nic.Mems[nic.PktSpillMem].LineBytes = 96
		return nic
	}
	allTCP := func(p *workload.Profile) {
		big(p)
		p.TCPFraction = 1
	}
	// cksumThenDPI reads the payload again right after the checksum's line
	// walk, so the walk must leave the streaming cursor where the plain
	// per-line loop left it.
	cksumThenDPI := nf.Spec{Name: "cksum-dpi", Source: `nf cksumdpi {
	state sigs : patterns["attack", "exploit"];

	handler(pkt) {
		if (!parse(ipv4)) { return pass; }
		if (!parse(tcp)) { return pass; }
		checksum(tcp);
		var hits = dpi_scan(sigs);
		emit(hits);
		return pass;
	}
}`}
	mixedSizes := func(p *workload.Profile) {
		p.Packets = 300
		p.PayloadBytes = 900
		p.PayloadJitter = 800
		p.TCPFraction = 1
	}
	// spill4160 shrinks the spill region to 4160 bytes, so the tails of
	// long payloads wrap past its end back to address 0.
	spill4160 := func() *lnic.LNIC {
		nic := lnic.Netronome()
		nic.Mems[nic.PktSpillMem].Bytes = 4160
		return nic
	}
	memFaults := func() *Faults {
		return &Faults{MemFault: map[string]float64{"ctm": 0.01, "emem": 0.03}, Seed: 5}
	}
	return []memPathCase{
		{name: "vnfchain-1400", spec: nf.VNFChain(), prof: big},
		{name: "vnfchain-1400-armsoc", spec: nf.VNFChain(), nic: lnic.ARMSoC, prof: big},
		{name: "lpm10k-64kflows", spec: nf.LPM(10000), place: flowCache, prof: manyFlows},
		{name: "lpm10k-pipeline", spec: nf.LPM(10000), nic: lnic.PipelineASIC, prof: func(p *workload.Profile) { p.Packets = 200 }},
		{name: "natfull-1400", spec: nf.NAT(true), prof: allTCP},
		{name: "natfull-oddlines", spec: nf.NAT(true), nic: oddLines, prof: allTCP},
		{name: "dpi-oddlines", spec: nf.DPI(), nic: oddLines, prof: big},
		{name: "cksum-then-dpi", spec: cksumThenDPI, prof: mixedSizes},
		{name: "cksum-then-dpi-oddlines", spec: cksumThenDPI, nic: oddLines, prof: mixedSizes},
		{name: "heavyhitter", spec: nf.HeavyHitter(1000)},
		{name: "loadbalancer", spec: nf.LoadBalancer(64)},
		{name: "vnfchain-1400-timeline", spec: nf.VNFChain(), timeline: true, prof: big},
		{name: "vnfchain-1400-memfault", spec: nf.VNFChain(), faults: memFaults(), prof: big},
		{name: "lpm10k-memfault", spec: nf.LPM(10000), place: flowCache, faults: memFaults(), prof: manyFlows},
		{name: "natfull-memfault", spec: nf.NAT(true), faults: memFaults(), prof: allTCP},
		{name: "vnfchain-1400-spillwrap", spec: nf.VNFChain(), nic: spill4160, prof: allTCP},
		{name: "natfull-spillwrap", spec: nf.NAT(true), nic: spill4160, prof: allTCP},
	}
}

// memPathDigest hashes the bit patterns of every packet's timestamps,
// latency and Breakdown, then the cache and flow-cache hit/miss counters,
// the per-region fault counts and any timeline hops of a finished run.
func memPathDigest(s *Sim, res *Result) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putF := func(f float64) { put(math.Float64bits(f)) }
	for _, p := range res.Packets {
		putF(p.ArrivalCycles)
		putF(p.DoneCycles)
		putF(p.Latency)
		put(p.Verdict)
		putF(p.Breakdown.Compute)
		putF(p.Breakdown.Mem)
		putF(p.Breakdown.Accel)
		putF(p.Breakdown.Queue)
		putF(p.Breakdown.Fixed)
	}
	put(uint64(res.Errors))
	for _, c := range s.caches {
		if c != nil {
			put(c.hits)
			put(c.misses)
		}
	}
	if s.fc != nil {
		put(s.fc.hits)
		put(s.fc.misses)
	}
	regions := make([]string, 0, len(res.Faults.MemFaults))
	for r := range res.Faults.MemFaults {
		regions = append(regions, r)
	}
	sort.Strings(regions)
	for _, r := range regions {
		h.Write([]byte(r))
		put(uint64(res.Faults.MemFaults[r]))
	}
	if res.Timeline != nil {
		for _, hop := range res.Timeline.Hops {
			h.Write([]byte(hop.Stage))
			put(uint64(hop.Packet))
			put(uint64(hop.Unit))
			putF(hop.Start)
			putF(hop.Dur)
			putF(hop.Wait)
			put(uint64(hop.Depth))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// memPathPins are the digests of memPathCases, recorded on the simulator
// before its memory path was table-driven (the two spillwrap cases were
// recorded later, on the per-byte DPI walk the line-run walk replaced). Any change to what a memory
// access costs, or to the order its cycles are added in, moves a digest;
// the integer-rounded goldens would not notice a reordered float add.
var memPathPins = map[string]string{
	"vnfchain-1400":           "959e42c14b031b32ce4d9ae5993726f83fab582166b96903dc4c7af9eef37298",
	"vnfchain-1400-armsoc":    "189d9c424320a21f41114e8fce6b90e5dbd8ba5dd41f2f277850e63bb7b3e638",
	"lpm10k-64kflows":         "639662ef64d75ab9371b75bd7b1c38824a7854a28f7bb4ca06ef876cc5083cee",
	"lpm10k-pipeline":         "8177396f30352db0699bded3ccb90fda7230914c49a0871cf9d05abe648e69bc",
	"natfull-1400":            "2c89cd68c65fe8e0e778504a6bc396fe3a161a888ebc03ea1acbdb2314a0239e",
	"natfull-oddlines":        "76fb00eb1c61422eacfa4288bd5d8a11bd6cba414a24b57065d27eab962d77c0",
	"dpi-oddlines":            "01ce5d28091e661c6f3dbf35d5e1c2fb08027b8c683317a61e6c6928001a370a",
	"cksum-then-dpi":          "63118baec7a4ca69e0e9f9251bab93fa7aa01a7894f9db0af4cf52350bdba97a",
	"cksum-then-dpi-oddlines": "7c420df243aa7696f507c602eb6876302fdf873ba387140479edfd31c21e27bf",
	"heavyhitter":             "7ce32b93b75d930b465019c4270d6c071c743fefaa612bc2f34f135ab0a5baee",
	"loadbalancer":            "ceb27b8c879712a3bc68a6cbaeed3dd3b6d8387af7b593bb61c0d6881833ffd2",
	"vnfchain-1400-timeline":  "c8708daebd30f84fcba81bdd5303c3fca259daad0d6bf3de57c23826a5acbad6",
	"vnfchain-1400-memfault":  "aeca0d971ba3785ab29cd6bad64dc2ea841bd2ba17fc044e03bd8ad5d9edb09c",
	"lpm10k-memfault":         "1eff46f8dac90acc5630e4a9c53ca644cce91108832f70fe0d018adefd9f65b6",
	"natfull-memfault":        "c73540c83db74f21ff4cd4175d37337f9e5c49c8f5aa1bf160369f69a28fdcb6",
	"vnfchain-1400-spillwrap": "df8377a63476923de63f20c20c1406e17f0aedc675c52726fe310865887504a0",
	"natfull-spillwrap":       "4413c72ef521817a88d321084567478587bee36113078e94213b86b636c0fa55",
}

// TestMemoryPathBitExact pins the simulated memory path bit for bit.
func TestMemoryPathBitExact(t *testing.T) {
	for _, c := range memPathCases() {
		t.Run(c.name, func(t *testing.T) {
			nic := lnic.Netronome()
			if c.nic != nil {
				nic = c.nic()
			}
			prog := c.spec.MustCompile()
			pl := DefaultPlacement(nic, prog)
			if c.place != nil {
				pl = c.place(nic, pl)
			}
			sim, err := NewContext(context.Background(), Config{NIC: nic, Prog: prog, Place: pl, Preload: c.spec.PreloadEntries,
				Seed: 7, Faults: c.faults, Timeline: c.timeline})
			if err != nil {
				t.Fatal(err)
			}
			p := workload.DefaultProfile()
			p.Packets = 500
			p.Flows = 100
			if c.prof != nil {
				c.prof(&p)
			}
			tr, err := workload.GenerateContext(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.RunContext(context.Background(), tr)
			if err != nil {
				t.Fatal(err)
			}
			if c.faults != nil && len(res.Faults.MemFaults) == 0 {
				t.Fatal("fault case injected no memory faults")
			}
			got := memPathDigest(sim, res)
			if want := memPathPins[c.name]; got != want {
				t.Errorf("digest %s, pinned %s", got, want)
			}
		})
	}
}

// TestMemCostMatchesAccessCycles pins the per-Sim price table to the one
// pricing rule it caches: for every region, load and store, memCost equals
// lnic.AccessCycles from the Sim's representative core (the raw latency
// where no edge reaches the region), and the hit price equals the region's
// cache-hit latency — on every shipped profile, on an lnic.Slice view, and
// still after the Sim has run and been reset for another window.
func TestMemCostMatchesAccessCycles(t *testing.T) {
	// unreachable drops every comp-mem edge into the last region (where
	// DefaultPlacement puts state), so the fallback prices real accesses.
	unreachable := func() *lnic.LNIC {
		nic := lnic.Netronome()
		last := len(nic.Mems) - 1
		edges := nic.CompMem[:0:0]
		for _, e := range nic.CompMem {
			if e.Mem != last {
				edges = append(edges, e)
			}
		}
		nic.CompMem = edges
		return nic
	}
	nics := []struct {
		name string
		nic  *lnic.LNIC
	}{
		{"netronome", lnic.Netronome()},
		{"armsoc", lnic.ARMSoC()},
		{"pipeline-asic", lnic.PipelineASIC()},
		{"netronome-slice", lnic.Netronome().Slice(0.25)},
		{"netronome-unreachable", unreachable()},
	}
	spec := nf.Firewall(4096)
	prog := spec.MustCompile()
	p := workload.DefaultProfile()
	p.Packets = 200
	tr, err := workload.GenerateContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	fallbacks := 0
	for _, c := range nics {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{NIC: c.nic, Prog: prog, Place: DefaultPlacement(c.nic, prog), Seed: 3}
			sim, err := NewContext(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			check := func(when string) {
				if len(sim.memCost) != len(c.nic.Mems) {
					t.Fatalf("%s: %d prices for %d regions", when, len(sim.memCost), len(c.nic.Mems))
				}
				for r := range c.nic.Mems {
					m := &c.nic.Mems[r]
					for _, store := range []bool{false, true} {
						want, ok := c.nic.AccessCycles(sim.npuUnit, r, store)
						if !ok {
							want = m.LoadCycles
							if store {
								want = m.StoreCycles
							}
							fallbacks++
						}
						got := sim.memCost[r].load
						if store {
							got = sim.memCost[r].store
						}
						if got != want {
							t.Errorf("%s: %s store=%v costs %v, AccessCycles says %v", when, m.Name, store, got, want)
						}
					}
					if got := sim.memCost[r].hit; got != m.CacheHitCycles {
						t.Errorf("%s: %s hit costs %v, region says %v", when, m.Name, got, m.CacheHitCycles)
					}
				}
			}
			check("after New")
			if _, err := sim.RunContext(context.Background(), tr); err != nil {
				t.Fatal(err)
			}
			next := cfg
			next.Seed = 99
			sim.reset(next)
			check("after reset")
		})
	}
	if fallbacks == 0 {
		t.Error("no region exercised the unreachable-region fallback")
	}
}

// TestDPIScanMatchesAutomaton is the property that lets dpiScan walk the
// automaton itself: on random payloads seeded with pattern pieces, its
// match count equals acAutomaton.Scan's over the bytes the DPI byte budget
// lets it see, for budgets that truncate the payload and ones that don't.
func TestDPIScanMatchesAutomaton(t *testing.T) {
	spec := nf.DPI()
	prog := spec.MustCompile()
	nic := lnic.Netronome()
	sim, err := NewContext(context.Background(), Config{NIC: nic, Prog: prog, Place: DefaultPlacement(nic, prog), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	pats := prog.Patterns["sigs"]
	slot := slotNamed(t, sim, "sigs")
	ac := sim.slots[slot].p.ac
	rng := rand.New(rand.NewSource(17))
	e := newExec(sim)
	sawMatch := false
	for trial := 0; trial < 300; trial++ {
		payload := make([]byte, rng.Intn(1600))
		for i := range payload {
			payload[i] = byte(rng.Intn(256))
		}
		// Splice in whole patterns and pattern prefixes, some overlapping.
		for k := rng.Intn(6); k > 0 && len(payload) > 0; k-- {
			pat := pats[rng.Intn(len(pats))]
			pat = pat[:1+rng.Intn(len(pat))]
			copy(payload[rng.Intn(len(payload)):], pat)
		}
		budgets := []int64{0, 1, int64(len(payload)) / 2, int64(len(payload)), int64(len(payload)) + 7}
		for _, budget := range budgets {
			sim.runDPI = budget
			wire := append(make([]byte, 54), payload...)
			e.reset(wire, trial)
			e.pkt = &packet.Packet{Payload: wire[54:]}
			got, err := e.dpiScan(slot)
			if err != nil {
				t.Fatal(err)
			}
			seen := payload
			if budget > 0 && int64(len(seen)) > budget {
				seen = seen[:budget]
			}
			want := ac.Scan(seen)
			if got != uint64(want) {
				t.Fatalf("trial %d, budget %d, %d bytes: dpiScan counts %d, Scan %d", trial, budget, len(payload), got, want)
			}
			sawMatch = sawMatch || want > 0
		}
	}
	if !sawMatch {
		t.Error("no payload matched a pattern; the property never saw a match")
	}
}

// TestPayloadReadPricesFirstLine checks that a packet's first payload read
// is priced even when its line key is 0 — line 0 of region 0, which the
// first packet's header-adjacent bytes land on when the packet region is
// region 0. No shipped profile puts packets there, so this target does.
func TestPayloadReadPricesFirstLine(t *testing.T) {
	nic := lnic.Netronome()
	nic.PktMem = 0
	nic.Mems[0].LineBytes = 64
	prog := nf.DPI().MustCompile()
	sim, err := NewContext(context.Background(), Config{NIC: nic, Prog: prog, Place: DefaultPlacement(nic, prog), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := sim.memCost[0].load
	if want == 1 {
		t.Fatalf("region 0 load price is 1 cycle, the same as a repeat read; the test cannot tell them apart")
	}
	wire := make([]byte, 54+100)
	e := newExec(sim)
	e.reset(wire, 0)
	e.pkt = &packet.Packet{Payload: wire[54:]}
	e.payloadRead(0)
	if e.now != want || e.bd.Mem != want || e.bd.Compute != 0 {
		t.Errorf("first payload read charged now %v (Mem %v, Compute %v), want a %v-cycle load of region 0",
			e.now, e.bd.Mem, e.bd.Compute, want)
	}
}
