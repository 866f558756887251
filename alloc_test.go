package clara

import (
	"context"
	"testing"

	"clara/internal/lnic"
	"clara/internal/mapper"
	"clara/internal/nf"
	"clara/internal/nicsim"
	"clara/internal/workload"
)

// simRunFixture builds the steady-state simulator fixture shared by
// BenchmarkSimRun and TestAllocBudget: one reusable Sim (timeline and fault
// injection off) and a trace whose decode cache is already warm, so
// measurements see the per-packet hot path rather than one-time setup.
func simRunFixture(tb testing.TB) (*nicsim.Sim, *workload.Trace) {
	tb.Helper()
	spec := nf.Firewall(65536)
	prog := spec.MustCompile()
	nic := lnic.Netronome()
	sim, err := nicsim.NewContext(context.Background(), nicsim.Config{
		NIC: nic, Prog: prog, Place: nicsim.DefaultPlacement(nic, prog),
		Preload: spec.PreloadEntries, Seed: 11,
	})
	if err != nil {
		tb.Fatal(err)
	}
	prof := workload.DefaultProfile()
	prof.Packets = 512
	prof.Flows = 64
	tr, err := workload.GenerateContext(context.Background(), prof)
	if err != nil {
		tb.Fatal(err)
	}
	tr.Decoded()
	return sim, tr
}

// simScanFixture builds a steady-state fixture dominated by the simulated
// memory path rather than by CIR dispatch: "vnfchain-1400" walks the DPI
// automaton over ~1400-byte payloads whose tails spill out of packet memory,
// and "lpm10k-64kflows" spreads 64k flows over a 10k-rule LPM table with no
// flow cache in front, so every packet pays the full rule scan. (A flow
// cache would hold the fixture's few hundred flows after the warm-up run.)
func simScanFixture(tb testing.TB, name string) (*nicsim.Sim, *workload.Trace) {
	tb.Helper()
	prof := workload.DefaultProfile()
	prof.Packets = 256
	var spec nf.Spec
	switch name {
	case "vnfchain-1400":
		spec = nf.VNFChain()
		prof.Flows = 200
		prof.PayloadBytes = 1400
		prof.PayloadJitter = 64
	case "lpm10k-64kflows":
		spec = nf.LPM(10000)
		prof.Flows = 65536
	default:
		tb.Fatalf("unknown scan fixture %q", name)
	}
	prog := spec.MustCompile()
	nic := lnic.Netronome()
	sim, err := nicsim.NewContext(context.Background(), nicsim.Config{
		NIC: nic, Prog: prog, Place: nicsim.DefaultPlacement(nic, prog),
		Preload: spec.PreloadEntries, Seed: 11,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := workload.GenerateContext(context.Background(), prof)
	if err != nil {
		tb.Fatal(err)
	}
	tr.Decoded()
	return sim, tr
}

// simScanFixtures names the simScanFixture variants.
var simScanFixtures = []string{"vnfchain-1400", "lpm10k-64kflows"}

// TestAllocBudget enforces the hot path's allocation contract (DESIGN.md
// "Hot path"): with timeline and faults off, a steady-state simulator run
// stays within 2 allocations per packet. The real figure is a small per-run
// constant (Result, interpreter, exec scratch) amortized over the trace —
// well under the budget — so this trips on any per-packet regression (a
// fresh exec, per-vcall argument slices, per-packet decode) long before it
// reaches 2/packet. The contract covers the dispatch-bound firewall fixture
// of BenchmarkSimRun and the memory-bound fixtures of BenchmarkSimRunScan.
func TestAllocBudget(t *testing.T) {
	check := func(t *testing.T, sim *nicsim.Sim, tr *workload.Trace) {
		// One warm run fills flow tables and lazy server pools so the
		// measured runs are steady-state.
		if _, err := sim.RunContext(context.Background(), tr); err != nil {
			t.Fatal(err)
		}
		perRun := testing.AllocsPerRun(10, func() {
			if _, err := sim.RunContext(context.Background(), tr); err != nil {
				t.Fatal(err)
			}
		})
		perPacket := perRun / float64(len(tr.Packets))
		t.Logf("sim hot path: %.1f allocs/run, %.4f allocs/packet over %d packets",
			perRun, perPacket, len(tr.Packets))
		if perPacket > 2 {
			t.Errorf("steady-state simulator allocates %.4f per packet (%.1f per run), budget is 2",
				perPacket, perRun)
		}
	}
	t.Run("firewall", func(t *testing.T) {
		sim, tr := simRunFixture(t)
		check(t, sim, tr)
	})
	for _, name := range simScanFixtures {
		t.Run(name, func(t *testing.T) {
			sim, tr := simScanFixture(t, name)
			check(t, sim, tr)
		})
	}
}

// mapBytesBudget bounds the bytes one cold BenchmarkMapILP solve allocates
// (vnfchain on netronome). The dense tableau allocated 778 KB per solve and
// the sparse one 118 KB; with the tableau storage pooled across solves and
// the constraint terms in one arena, a solve allocates about 29 KB. The
// figure is deterministic for the fixed input, so the budget needs no slack
// for timing.
const mapBytesBudget = 44_000

// TestMapAllocBudget keeps the ILP solve's transient allocation down: with
// a live heap of about 1.2 MB under the runtime's 4 MB heap goal, the bytes
// the advise path allocates set how often the collector runs (DESIGN.md
// "ILP solve").
func TestMapAllocBudget(t *testing.T) {
	checkBytesBudget(t, "vnfchain/netronome ILP mapping", BenchmarkMapILP, mapBytesBudget)
}

// mapWarmBytesBudget bounds the bytes one BenchmarkMapILPWarm map
// allocates: the model, the solution and the mapping, as a cold solve does,
// with the tableau loaded from the recorded phase 1 into pooled storage,
// so no snapshot is copied out. Measured about 29 KB.
const mapWarmBytesBudget = 40_000

// TestMapWarmAllocBudget keeps a map that reuses phase 1 from allocating
// what it skips.
func TestMapWarmAllocBudget(t *testing.T) {
	checkBytesBudget(t, "vnfchain/netronome warm ILP mapping", BenchmarkMapILPWarm, mapWarmBytesBudget)
}

// mapWarmReplayBytesBudget bounds the bytes one BenchmarkMapILPWarmReplay
// map allocates: a warm map's, with the replayed rows rebuilt in the pooled
// tableau's spill slab. Measured about 25 KB.
const mapWarmReplayBytesBudget = 40_000

// TestMapWarmReplayAllocBudget keeps a map that replays phase 1 on changed
// rows from allocating more than a map that reuses it as is.
func TestMapWarmReplayAllocBudget(t *testing.T) {
	checkBytesBudget(t, "vnfchain/netronome warm ILP mapping, replayed", BenchmarkMapILPWarmReplay, mapWarmReplayBytesBudget)
}

// TestMapPhase1NilSinkAllocs: with no metrics registry in the context, the
// pipeline's phase-1 bookkeeping (the slot lookup and the hit counter)
// allocates nothing. A map that reuses phase 1 must allocate what
// mapper.MapFrom allocates from the same snapshot plus the map stage's own
// overhead, measured as Greedy through the pipeline less mapper.Greedy.
func TestMapPhase1NilSinkAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats sync.Pool reuse")
	}
	ctx := context.Background()
	nfo, err := CompileNF(nf.VNFChain().Source)
	if err != nil {
		t.Fatal(err)
	}
	target := lnic.Netronome()
	wl, err := ParseWorkload("")
	if err != nil {
		t.Fatal(err)
	}
	g, err := nfo.pipe.Annotated(ctx, wl)
	if err != nil {
		t.Fatal(err)
	}
	_, snap, _, err := mapper.MapFrom(g, target, wl, Hints{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // admit the target, then record
		if _, err := nfo.MapContext(ctx, target, wl, Hints{}); err != nil {
			t.Fatal(err)
		}
	}
	allocs := func(f func() error) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := f(); err != nil {
				t.Fatal(err)
			}
		})
	}
	pipeMap := allocs(func() error { _, err := nfo.MapContext(ctx, target, wl, Hints{}); return err })
	mapFrom := allocs(func() error {
		_, got, _, err := mapper.MapFrom(g, target, wl, Hints{}, snap)
		if err == nil && got != snap {
			t.Fatal("mapper.MapFrom missed its own snapshot")
		}
		return err
	})
	pipeGreedy := allocs(func() error { _, err := nfo.MapGreedyContext(ctx, target, wl, Hints{}); return err })
	greedy := allocs(func() error { _, err := mapper.Greedy(g, target, wl, Hints{}); return err })
	t.Logf("allocs/op: pipeline map %.0f, mapper.MapFrom %.0f, pipeline greedy %.0f, mapper.Greedy %.0f",
		pipeMap, mapFrom, pipeGreedy, greedy)
	if extra := pipeMap - mapFrom - (pipeGreedy - greedy); extra != 0 {
		t.Errorf("the phase-1 bookkeeping allocates %.0f per map on a nil sink, want 0", extra)
	}
}

// adviseBytesBudget bounds the bytes one warm BenchmarkAdviseSerial call
// allocates: three mappings and three predictions of the VNF chain. Built
// fresh per call (targets, engines, tableaux, per-class tallies) they came
// to about 230 KB; reused, about 66 KB.
const adviseBytesBudget = 100_000

// TestAdviseAllocBudget keeps a warm advise call from rebuilding what it
// already has: the built-in targets, the NF's compiled engines, the LP
// workspace and the predictor's cost environment.
func TestAdviseAllocBudget(t *testing.T) {
	checkBytesBudget(t, "vnfchain warm advise", BenchmarkAdviseSerial, adviseBytesBudget)
}

// colocBytesBudget bounds the bytes one BenchmarkSimRunColocated call
// allocates: two tenants' simulators built for the call's one window, the
// merged arrival order and two tenants' Results. With the region caches
// allocated whole (786 KB of EMEM tags and recency counters per simulator)
// and the arrival order grown by appends, a call allocated about 3.59 MB;
// with cache storage per touched set and the arrival order sized once, about
// 1.95 MB. The budget leaves about 23% headroom.
const colocBytesBudget = 2_400_000

// TestColocAllocBudget keeps a co-located run's set-up proportional to the
// packets it simulates rather than to the NIC's cache capacity.
func TestColocAllocBudget(t *testing.T) {
	checkBytesBudget(t, "firewall+NAT co-located run", BenchmarkSimRunColocated, colocBytesBudget)
}

// checkBytesBudget runs bench and fails t when an op allocates more than
// budget bytes.
func checkBytesBudget(t *testing.T, what string, bench func(*testing.B), budget int64) {
	if raceEnabled {
		t.Skip("the race detector defeats sync.Pool reuse")
	}
	res := testing.Benchmark(bench)
	if res.N == 0 {
		t.Fatalf("%s: benchmark did not run", what)
	}
	perOp := res.AllocedBytesPerOp()
	t.Logf("%s: %d B/op, %d allocs/op over %d ops", what, perOp, res.AllocsPerOp(), res.N)
	if perOp > budget {
		t.Errorf("%s allocates %d B/op, budget is %d", what, perOp, budget)
	}
}
