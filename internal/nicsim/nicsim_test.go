package nicsim

import (
	"context"
	"math"
	"testing"

	"clara/internal/cir"
	"clara/internal/lnic"
	"clara/internal/nf"
	"clara/internal/workload"
)

func smallTrace(t *testing.T, mutate func(*workload.Profile)) *workload.Trace {
	t.Helper()
	p := workload.DefaultProfile()
	p.Packets = 1500
	p.Flows = 200
	if mutate != nil {
		mutate(&p)
	}
	tr, err := workload.GenerateContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func simulate(t *testing.T, spec nf.Spec, place func(*lnic.LNIC, Placement) Placement, mutate func(*workload.Profile)) *Result {
	t.Helper()
	nic := lnic.Netronome()
	prog := spec.MustCompile()
	pl := DefaultPlacement(nic, prog)
	if place != nil {
		pl = place(nic, pl)
	}
	sim, err := NewContext(context.Background(), Config{NIC: nic, Prog: prog, Place: pl, Preload: spec.PreloadEntries, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunContext(context.Background(), smallTrace(t, mutate))
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors > 0 {
		t.Fatalf("%d execution errors", res.Errors)
	}
	return res
}

func TestFirewallSemantics(t *testing.T) {
	res := simulate(t, nf.Firewall(65536), nil, func(p *workload.Profile) {
		p.TCPFraction = 1.0
	})
	// With all-TCP traffic whose flows open with SYN, nothing should drop.
	for i := range res.Packets {
		if res.Packets[i].Verdict != cir.VerdictPass {
			t.Fatalf("packet %d dropped by firewall (class %s)", i, res.Packets[i].Class)
		}
	}
	// UDP-only traffic never establishes, so everything drops.
	res = simulate(t, nf.Firewall(65536), nil, func(p *workload.Profile) {
		p.TCPFraction = 0.0
	})
	for i := range res.Packets {
		if res.Packets[i].Verdict != cir.VerdictDrop {
			t.Fatalf("packet %d passed stateful firewall without establishment", i)
		}
	}
}

func TestFirewallSYNSlowerThanEstablished(t *testing.T) {
	res := simulate(t, nf.Firewall(65536), nil, func(p *workload.Profile) {
		p.TCPFraction = 1.0
		p.Packets = 4000
	})
	byClass := res.MeanLatencyByClass()
	syn, est := byClass["tcp-syn"], byClass["tcp"]
	if syn == 0 || est == 0 {
		t.Fatalf("classes missing: %v", byClass)
	}
	// SYN packets do an extra miss + insert (§3.5's example profile).
	if syn <= est {
		t.Errorf("SYN latency %.0f ≤ established %.0f; state setup should cost more", syn, est)
	}
}

func TestLPMScanScalesWithEntries(t *testing.T) {
	small := simulate(t, nf.LPM(1000), nil, nil)
	big := simulate(t, nf.LPM(8000), nil, nil)
	if big.MeanLatency() < 3*small.MeanLatency() {
		t.Errorf("LPM latency: 1k entries %.0f, 8k entries %.0f — want ≈8x growth",
			small.MeanLatency(), big.MeanLatency())
	}
}

func TestLPMFlowCacheOrdersOfMagnitude(t *testing.T) {
	// Long-lived flows so cache hits dominate, as in a steady-state router.
	spec := nf.LPM(8000)
	longFlows := func(p *workload.Profile) {
		p.Packets = 5000
		p.Flows = 100
	}
	slow := simulate(t, spec, nil, longFlows)
	fast := simulate(t, spec, func(nic *lnic.LNIC, p Placement) Placement {
		p.UseFlowCache = map[string]bool{"routes": true}
		return p
	}, longFlows)
	ratio := slow.MeanLatency() / fast.MeanLatency()
	if ratio < 10 {
		t.Errorf("flow cache speedup = %.1fx, want ≥10x (paper: orders of magnitude)", ratio)
	}
	if fast.FlowCacheHitRate < 0.9 {
		t.Errorf("flow cache hit rate = %.2f", fast.FlowCacheHitRate)
	}
}

func TestNATChecksumAccelFasterForBigPackets(t *testing.T) {
	spec := nf.NAT(true)
	big := func(p *workload.Profile) { p.PayloadBytes = 1000; p.TCPFraction = 1.0 }
	sw := simulate(t, spec, nil, big)
	hw := simulate(t, spec, func(nic *lnic.LNIC, p Placement) Placement {
		p.ChecksumOnAccel = true
		return p
	}, big)
	if hw.MeanLatency() >= sw.MeanLatency() {
		t.Errorf("accel checksum %.0f ≥ software %.0f", hw.MeanLatency(), sw.MeanLatency())
	}
	// The software path should cost roughly 1000+ extra cycles (§2.1 says
	// ~1700 extra on the NPU for 1000B).
	if sw.MeanLatency()-hw.MeanLatency() < 800 {
		t.Errorf("checksum placement gap = %.0f cycles, want ≥800", sw.MeanLatency()-hw.MeanLatency())
	}
}

func TestDPILatencyGrowsWithPayload(t *testing.T) {
	spec := nf.DPI()
	small := simulate(t, spec, nil, func(p *workload.Profile) { p.PayloadBytes = 64 })
	large := simulate(t, spec, nil, func(p *workload.Profile) { p.PayloadBytes = 1200 })
	if large.MeanLatency() < 5*small.MeanLatency() {
		t.Errorf("DPI: 64B %.0f vs 1200B %.0f — want ≈18x growth", small.MeanLatency(), large.MeanLatency())
	}
}

func TestDPIDropsMatchingPayload(t *testing.T) {
	nic := lnic.Netronome()
	prog := nf.DPI().MustCompile()
	sim, err := NewContext(context.Background(), Config{NIC: nic, Prog: prog, Place: DefaultPlacement(nic, prog), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Build a trace with a malicious payload.
	p := workload.DefaultProfile()
	p.Packets = 1
	tr, err := workload.GenerateContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	// Inject the signature into the payload bytes.
	data := tr.Packets[0].Data
	copy(data[len(data)-20:], []byte("attack_in_progress!!"))
	res, err := sim.RunContext(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets[0].Verdict != cir.VerdictDrop {
		t.Error("packet containing signature was not dropped")
	}
}

func TestStatePlacementLatencyOrder(t *testing.T) {
	// Firewall state in CTM vs IMEM vs EMEM (Figure 1's FW variants). CTM
	// must be fastest. EMEM beats IMEM only while the working set fits its
	// 3 MB cache; with a cache-busting flow count EMEM must fall behind.
	capacity := 4000
	latFor := func(region string, mutate func(*workload.Profile)) float64 {
		t.Helper()
		return simulate(t, nf.Firewall(capacity), func(nic *lnic.LNIC, p Placement) Placement {
			id, ok := nic.MemByName(region)
			if !ok {
				t.Fatalf("region %s missing", region)
			}
			p.StateMem["conns"] = id
			return p
		}, mutate).MeanLatency()
	}
	small := func(p *workload.Profile) { p.TCPFraction = 1.0; p.Flows = 500 }
	ctm := latFor("ctm", small)
	imem := latFor("imem", small)
	ememCached := latFor("emem", small)
	if !(ctm < imem && ctm < ememCached) {
		t.Errorf("CTM (%.0f) should beat IMEM (%.0f) and cached EMEM (%.0f)", ctm, imem, ememCached)
	}
	if ememCached >= imem {
		t.Errorf("small working set: cached EMEM (%.0f) should beat IMEM (%.0f)", ememCached, imem)
	}
	// A 2M-entry table spreads buckets over ~16 MB — far beyond the 3 MB
	// EMEM cache — and half a million one-packet flows keep accesses cold.
	capacity = 2000000
	big := func(p *workload.Profile) {
		p.TCPFraction = 1.0
		p.Flows = 500000
		p.Packets = 20000
	}
	ememThrashed := latFor("emem", big)
	imemBig := latFor("imem", big)
	if ememThrashed <= imemBig {
		t.Errorf("cache-busting working set: EMEM (%.0f) should fall behind IMEM (%.0f)", ememThrashed, imemBig)
	}
}

func TestZipfImprovesEMEMCacheHitRate(t *testing.T) {
	place := func(nic *lnic.LNIC, p Placement) Placement {
		id, _ := nic.MemByName("emem")
		p.StateMem["conns"] = id
		return p
	}
	many := func(p *workload.Profile) {
		p.TCPFraction = 1.0
		p.Flows = 20000
		p.Packets = 20000
		p.PayloadBytes = 1200 // spill traffic shares the cache
	}
	uniform := simulate(t, nf.Firewall(65536), place, many)
	zipf := simulate(t, nf.Firewall(65536), place, func(p *workload.Profile) {
		many(p)
		p.FlowDist = workload.DistZipf
		p.ZipfS = 1.3
	})
	if zipf.CacheHitRate["emem"] <= uniform.CacheHitRate["emem"] {
		t.Errorf("zipf hit rate %.3f ≤ uniform %.3f", zipf.CacheHitRate["emem"], uniform.CacheHitRate["emem"])
	}
}

func TestHighRateQueueing(t *testing.T) {
	slow := simulate(t, nf.DPI(), nil, func(p *workload.Profile) {
		p.RatePPS = 10_000
		p.PayloadBytes = 1000
	})
	fast := simulate(t, nf.DPI(), nil, func(p *workload.Profile) {
		p.RatePPS = 3_000_000
		p.PayloadBytes = 1000
	})
	if fast.MeanLatency() <= slow.MeanLatency()*1.05 {
		t.Errorf("latency at 3Mpps (%.0f) not above 10kpps (%.0f); queueing missing",
			fast.MeanLatency(), slow.MeanLatency())
	}
	qSlow := slow.MeanBreakdown().Queue
	qFast := fast.MeanBreakdown().Queue
	if qFast <= qSlow {
		t.Errorf("queue cycles at high rate %.0f ≤ low rate %.0f", qFast, qSlow)
	}
}

func TestAllNFsRunClean(t *testing.T) {
	for name, spec := range nf.All() {
		spec := spec
		t.Run(name, func(t *testing.T) {
			res := simulate(t, spec, nil, func(p *workload.Profile) { p.Packets = 600 })
			if len(res.Packets) == 0 {
				t.Fatal("no packets simulated")
			}
			if res.MeanLatency() <= 0 {
				t.Error("non-positive mean latency")
			}
			for i := range res.Packets {
				b := res.Packets[i].Breakdown
				total := b.Compute + b.Mem + b.Accel + b.Queue + b.Fixed
				if math.Abs(total-res.Packets[i].Latency) > 1e-6 {
					t.Fatalf("packet %d: breakdown %.2f != latency %.2f", i, total, res.Packets[i].Latency)
				}
			}
		})
	}
}

func TestResultPercentiles(t *testing.T) {
	res := simulate(t, nf.Firewall(65536), nil, nil)
	p50 := res.Percentile(50)
	p99 := res.Percentile(99)
	if p50 <= 0 || p99 < p50 {
		t.Errorf("p50=%.0f p99=%.0f", p50, p99)
	}
	if res.Percentile(0) > p50 {
		t.Error("p0 > p50")
	}
}

func TestParseOnEngineCheaper(t *testing.T) {
	sw := simulate(t, nf.Firewall(65536), nil, nil)
	hw := simulate(t, nf.Firewall(65536), func(nic *lnic.LNIC, p Placement) Placement {
		p.ParseOnEngine = true
		return p
	}, nil)
	if hw.MeanLatency() >= sw.MeanLatency() {
		t.Errorf("parse engine %.0f ≥ software parse %.0f", hw.MeanLatency(), sw.MeanLatency())
	}
}

func TestMeteringDropsUnderAggressiveRate(t *testing.T) {
	// A single flow at a very high packet rate must exhaust its bucket.
	res := simulate(t, nf.Metering(1, 8), nil, func(p *workload.Profile) {
		p.Flows = 1
		p.RatePPS = 1_000_000
		p.Packets = 500
		p.TCPFraction = 1.0
	})
	var drops int
	for i := range res.Packets {
		if res.Packets[i].Verdict == cir.VerdictDrop {
			drops++
		}
	}
	if drops == 0 {
		t.Error("token bucket never dropped at 1Mpps single flow")
	}
}

func TestSketchHeavyHitterDetection(t *testing.T) {
	res := simulate(t, nf.HeavyHitter(100), nil, func(p *workload.Profile) {
		p.Flows = 5
		p.Packets = 2000
		p.FlowDist = workload.DistZipf
		p.ZipfS = 2.0
	})
	var drops int
	for i := range res.Packets {
		if res.Packets[i].Verdict == cir.VerdictDrop {
			drops++
		}
	}
	// The dominant flow exceeds 100 packets quickly; many drops expected.
	if drops < 100 {
		t.Errorf("heavy hitter drops = %d, want ≥100", drops)
	}
}

func TestMapFIFOReplacement(t *testing.T) {
	// Capacity-2 map: inserting 3 keys evicts the first.
	m := newMapState(cir.StateObj{Name: "m", Kind: cir.StateMap, KeySize: 8, ValueSize: 8, Capacity: 2}, 0, 0)
	m.put(1, 10, 0)
	m.put(2, 20, 0)
	m.put(3, 30, 0)
	if _, ok := m.lookup(1); ok {
		t.Error("key 1 should have been evicted")
	}
	if e, ok := m.lookup(3); !ok || e.v[0] != 30 {
		t.Error("key 3 missing after eviction cycle")
	}
}

func TestLPMLookupCorrectness(t *testing.T) {
	l := newLPMState(cir.StateObj{Name: "r", Kind: cir.StateLPM, KeySize: 4, ValueSize: 4, Capacity: 10}, 0, 0, 1, 1)
	// Only the default route is installed with entries=1.
	l.install(lpmRule{prefix: mask(0xc0a80100, 24), plen: 24, nh: 7})
	l.install(lpmRule{prefix: mask(0xc0a80000, 16), plen: 16, nh: 3})
	if nh := l.lookup(0xc0a80105); nh != 7 {
		t.Errorf("lookup /24 = %d, want 7", nh)
	}
	if nh := l.lookup(0xc0a8FF05); nh != 3 {
		t.Errorf("lookup /16 = %d, want 3", nh)
	}
	if nh := l.lookup(0x08080808); nh != 0 {
		t.Errorf("default route = %d, want 0", nh)
	}
}

func TestAhoCorasick(t *testing.T) {
	ac := buildAC([]string{"he", "she", "his", "hers"})
	cases := []struct {
		text string
		want int
	}{
		{"ushers", 3}, // she, he, hers
		{"his", 1},
		{"xyz", 0},
		{"hehehe", 3},
		{"", 0},
	}
	for _, c := range cases {
		if got := ac.Scan([]byte(c.text)); got != c.want {
			t.Errorf("Scan(%q) = %d, want %d", c.text, got, c.want)
		}
	}
	if ac.States() < 8 {
		t.Errorf("states = %d", ac.States())
	}
	if ac.FootprintBytes() != ac.States()*1024 {
		t.Errorf("footprint = %d", ac.FootprintBytes())
	}
}

func TestAhoCorasickOverlapping(t *testing.T) {
	ac := buildAC([]string{"aa"})
	if got := ac.Scan([]byte("aaaa")); got != 3 {
		t.Errorf("overlapping matches = %d, want 3", got)
	}
}

func TestCacheBasics(t *testing.T) {
	c := newCache(1024, 64) // 16 lines
	if !c.access(0) == false {
		t.Error("first access should miss")
	}
	if !c.access(0) {
		t.Error("second access should hit")
	}
	if !c.access(32) {
		t.Error("same line should hit")
	}
	if c.access(4096) {
		t.Error("distant line should miss")
	}
	if c.HitRate() != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", c.HitRate())
	}
}

func TestCacheEviction(t *testing.T) {
	c := newCache(512, 64) // 8 lines, 1-way after sizing? ways=8 → 1 set
	// Touch 9 distinct lines; line 0 must eventually evict.
	for i := 0; i < 9; i++ {
		c.access(uint64(i * 64))
	}
	if c.access(0) {
		t.Error("line 0 should have been evicted (LRU)")
	}
}

func TestFlowCacheLRU(t *testing.T) {
	fc := newFlowCache(2)
	owner := fcOwner{slot: 3}
	fc.put(owner, 1, uint64(10))
	fc.put(owner, 2, uint64(20))
	if _, ok := fc.get(owner, 1); !ok {
		t.Fatal("key 1 missing")
	}
	fc.put(owner, 3, uint64(30)) // evicts key 2 (LRU)
	if _, ok := fc.get(owner, 2); ok {
		t.Error("key 2 should have been evicted")
	}
	if v, ok := fc.get(owner, 1); !ok || v.(uint64) != 10 {
		t.Error("key 1 lost")
	}
	fc.invalidate(owner, 1)
	if _, ok := fc.get(owner, 1); ok {
		t.Error("invalidate failed")
	}
}

func TestSimRejectsBadConfig(t *testing.T) {
	if _, err := NewContext(context.Background(), Config{}); err == nil {
		t.Error("want error for nil config")
	}
	nic := lnic.Netronome()
	prog := nf.Firewall(10).MustCompile()
	pl := DefaultPlacement(nic, prog)
	pl.StateMem["conns"] = 99
	if _, err := NewContext(context.Background(), Config{NIC: nic, Prog: prog, Place: pl}); err == nil {
		t.Error("want error for out-of-range region")
	}
}

func TestDeterminism(t *testing.T) {
	a := simulate(t, nf.VNFChain(), nil, nil)
	b := simulate(t, nf.VNFChain(), nil, nil)
	if len(a.Packets) != len(b.Packets) {
		t.Fatal("packet counts differ")
	}
	for i := range a.Packets {
		if a.Packets[i].Latency != b.Packets[i].Latency {
			t.Fatalf("packet %d latency differs: %v vs %v", i, a.Packets[i].Latency, b.Packets[i].Latency)
		}
	}
}
