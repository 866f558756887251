package clara

// Benchmarks, one per paper artifact (DESIGN.md experiments E1–E9) plus the
// pipeline stages. Each benchmark iteration regenerates the corresponding
// table/figure at a reduced trace length; run
//
//	go test -bench=. -benchmem
//
// for the full sweep, or cmd/clara-eval for human-readable tables at
// arbitrary scale.

import (
	"context"
	"testing"

	"clara/internal/cir"
	"clara/internal/eval"
	"clara/internal/lnic"
	"clara/internal/mapper"
	"clara/internal/nf"
	"clara/internal/nicsim"
	"clara/internal/workload"
)

var benchCfg = eval.Config{Packets: 600, Seed: 11}

// BenchmarkFig1 regenerates the Figure 1 variability table (E1): five NFs,
// 2–4 variants each, measured on the simulated Netronome.
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.Fig1(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3a regenerates the LPM predicted-vs-actual sweep (E2).
func BenchmarkFig3a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.Fig3a(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3b regenerates the VNF-chain sweep (E3).
func BenchmarkFig3b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.Fig3b(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3c regenerates the NAT sweep (E4).
func BenchmarkFig3c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.Fig3c(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAccuracy regenerates the §4 prediction-error table (E5).
func BenchmarkAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.Accuracy(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicrobench regenerates the §3.2 parameter table (E6).
func BenchmarkMicrobench(b *testing.B) {
	t, err := NewTarget("netronome")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := Microbench(t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCksumGap regenerates the §2.1 checksum-placement example (E7).
func BenchmarkCksumGap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.Cksum(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClasses regenerates the §3.5 per-class profile (E8).
func BenchmarkClasses(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.Classes(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterference regenerates the co-residency analysis (E9).
func BenchmarkInterference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.Interference(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationILP regenerates the ILP-vs-greedy ablation.
func BenchmarkAblationILP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.ILPvsGreedy(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Pipeline-stage benchmarks -------------------------------------------

// BenchmarkCompileNF measures front-end + dataflow-graph extraction.
func BenchmarkCompileNF(b *testing.B) {
	src := nf.VNFChain().Source
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := CompileNF(src); err != nil {
			b.Fatal(err)
		}
	}
}

// mapILPFixture returns the VNF chain, compiled, the netronome target, the
// default workload and the VNF chain's graph annotated for it.
func mapILPFixture(b *testing.B) (*NF, *Target, Workload, *cir.Graph) {
	nfo, err := CompileNF(nf.VNFChain().Source)
	if err != nil {
		b.Fatal(err)
	}
	target, err := NewTarget("netronome")
	if err != nil {
		b.Fatal(err)
	}
	wl, err := ParseWorkload("")
	if err != nil {
		b.Fatal(err)
	}
	g, err := nfo.pipe.Annotated(context.Background(), wl)
	if err != nil {
		b.Fatal(err)
	}
	return nfo, target, wl, g
}

// BenchmarkMapILP measures one cold Π/Γ/Θ solve (vnfchain on netronome):
// mapper.Map over the annotated graph, which starts from no earlier solve.
func BenchmarkMapILP(b *testing.B) {
	_, target, wl, g := mapILPFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapper.Map(g, target, wl, Hints{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapILPWarm measures the solve a repeated analysis pays: the NF's
// pipeline maps the workload again, and its root starts from the phase 1 the
// previous map recorded. It fails unless that map reuses it.
func BenchmarkMapILPWarm(b *testing.B) {
	nfo, target, wl, _ := mapILPFixture(b)
	// The first map admits the target, the second records its phase 1.
	for i := 0; i < 2; i++ {
		if _, err := nfo.Map(target, wl, Hints{}); err != nil {
			b.Fatal(err)
		}
	}
	m := NewMetrics()
	if _, err := nfo.MapContext(WithMetrics(context.Background(), m), target, wl, Hints{}); err != nil {
		b.Fatal(err)
	}
	if hits := m.Counter("clara_map_phase1_hits_total").Value(); hits != 1 {
		b.Fatalf("the warm map reused phase 1 %d times, want 1", hits)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nfo.Map(target, wl, Hints{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapILPWarmReplay measures the solve a warm analysis pays when
// the workload moves: the NF's pipeline maps, in turn, the default workload
// and one with another flow count, rate and packet size. The VNF chain has
// no accelerator node on netronome, so its ILP has no Θ row; the flow count
// prices its flow-cache row, a passenger of phase 1. Each root starts from
// the phase 1 recorded under the default workload, as is or by replaying
// its pivot log on that row. It fails unless the maps replay.
func BenchmarkMapILPWarmReplay(b *testing.B) {
	nfo, target, wl, _ := mapILPFixture(b)
	moved, err := ParseWorkload("flows=3000,rate=90000,size=700")
	if err != nil {
		b.Fatal(err)
	}
	wls := [2]Workload{wl, moved}
	// The first map admits the target, the second records its phase 1.
	for i := 0; i < 2; i++ {
		if _, err := nfo.Map(target, wl, Hints{}); err != nil {
			b.Fatal(err)
		}
	}
	m := NewMetrics()
	for _, w := range wls {
		if _, err := nfo.MapContext(WithMetrics(context.Background(), m), target, w, Hints{}); err != nil {
			b.Fatal(err)
		}
	}
	hits, replays := m.Counter("clara_map_phase1_hits_total").Value(), m.Counter("clara_map_phase1_replays_total").Value()
	if hits != 2 || replays != 1 {
		b.Fatalf("the two warm maps reused phase 1 %d times and replayed it %d times, want 2 and 1", hits, replays)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nfo.Map(target, wls[i%2], Hints{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredict measures one full per-class prediction.
func BenchmarkPredict(b *testing.B) {
	nfo, err := CompileNF(nf.VNFChain().Source)
	if err != nil {
		b.Fatal(err)
	}
	target, err := NewTarget("netronome")
	if err != nil {
		b.Fatal(err)
	}
	wl, err := ParseWorkload("")
	if err != nil {
		b.Fatal(err)
	}
	m, err := nfo.Map(target, wl, Hints{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nfo.PredictMapped(target, m, wl, PredictOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictColocated measures a steady-state two-tenant co-location
// prediction: the contention model is fitted (and memoized) before the
// timer, so iterations price the per-query path the /v1/colocate endpoint
// pays on a cache miss — two sliced solo predictions plus two inflated
// re-predictions. bench_guard pins ns/op and allocs/op
// (testdata/bench_baseline.json).
func BenchmarkPredictColocated(b *testing.B) {
	nfs := make([]*NF, 2)
	for i, spec := range []nf.Spec{nf.Firewall(65536), nf.NAT(true)} {
		nfo, err := CompileNF(spec.Source)
		if err != nil {
			b.Fatal(err)
		}
		for st, n := range spec.PreloadEntries {
			nfo.Preload[st] = n
		}
		nfs[i] = nfo
	}
	target, err := NewTarget("netronome")
	if err != nil {
		b.Fatal(err)
	}
	wl, err := ParseWorkload("rate=2000000,flows=1000,tcp=1.0,size=200")
	if err != nil {
		b.Fatal(err)
	}
	weights := []float64{1, 1}
	wls := []Workload{wl, wl}
	// Warm the memoized contention model and the per-NF enumerations.
	if _, err := PredictColocated(nfs, weights, target, wls); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PredictColocated(nfs, weights, target, wls); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimRunColocated measures the multi-tenant engine end to end: two
// tenants sharing one Netronome, 4096 packets each, merged-order stepping on
// GOMAXPROCS window workers, per-tenant merges included. bench_guard pins
// ns/op and allocs/op (testdata/bench_baseline.json).
func BenchmarkSimRunColocated(b *testing.B) {
	cfg := nicsim.ColocConfig{NIC: lnic.Netronome(), Seed: 11}
	for i, spec := range []nf.Spec{nf.Firewall(65536), nf.NAT(true)} {
		prog := spec.MustCompile()
		prof := workload.DefaultProfile()
		prof.Packets = 4096
		prof.Flows = 256
		prof.Seed = int64(100 + i)
		tr, err := workload.GenerateContext(context.Background(), prof)
		if err != nil {
			b.Fatal(err)
		}
		tr.Decoded()
		cfg.Tenants = append(cfg.Tenants, nicsim.Tenant{
			Prog: prog, Place: nicsim.DefaultPlacement(cfg.NIC, prog),
			Preload: spec.PreloadEntries, Weight: 1, Trace: tr,
		})
	}
	opts := nicsim.ShardOpts{Workers: -1, Window: nicsim.DefaultShardWindow}
	if _, err := nicsim.RunColocatedContext(context.Background(), cfg, opts); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(2 * 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nicsim.RunColocatedContext(context.Background(), cfg, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictColdNF measures Predict with a fresh NF every iteration:
// each call pays the full class-enumeration + annotation cost. Contrast
// with BenchmarkPredict above, whose NF serves every call from the memoized
// enumeration — the gap is the redundant symbolic-execution pass that
// Advise/Predict used to repeat per call.
func BenchmarkPredictColdNF(b *testing.B) {
	src := nf.VNFChain().Source
	target, err := NewTarget("netronome")
	if err != nil {
		b.Fatal(err)
	}
	wl, err := ParseWorkload("")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nfo, err := CompileNF(src)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := nfo.Predict(target, wl, Hints{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdviseSerial ranks all targets on one worker — the pre-pool
// baseline for the speedup numbers in CHANGES.md.
func BenchmarkAdviseSerial(b *testing.B) {
	benchmarkAdvise(b, 1)
}

// BenchmarkAdviseParallel ranks all targets on the default pool width.
func BenchmarkAdviseParallel(b *testing.B) {
	benchmarkAdvise(b, 0)
}

func benchmarkAdvise(b *testing.B, width int) {
	nfo, err := CompileNF(nf.VNFChain().Source)
	if err != nil {
		b.Fatal(err)
	}
	wl, err := ParseWorkload("")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AdviseParallel(nfo, wl, width); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulate measures simulator throughput (packets per iteration).
func BenchmarkSimulate(b *testing.B) {
	nfo, err := CompileNF(nf.Firewall(65536).Source)
	if err != nil {
		b.Fatal(err)
	}
	target, err := NewTarget("netronome")
	if err != nil {
		b.Fatal(err)
	}
	wl, err := ParseWorkload("packets=2000,tcp=1.0")
	if err != nil {
		b.Fatal(err)
	}
	m, err := nfo.Map(target, wl, Hints{})
	if err != nil {
		b.Fatal(err)
	}
	prof, err := ParseTrafficProfile("packets=2000,tcp=1.0")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := GenerateTrace(prof)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(tr.Packets)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nfo.Measure(target, m, tr, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimRun measures the simulator hot path in steady state: one Sim
// reused across iterations, trace decode cache warmed, timeline and fault
// injection off. internal/nicsim's BenchmarkRunContextReference is the
// contrast on the reference loop over the CIR interpreter. bench_guard pins
// both ns/op and allocs/op for this benchmark
// (testdata/bench_baseline.json); see DESIGN.md "Hot path" before
// re-baselining.
func BenchmarkSimRun(b *testing.B) {
	sim, tr := simRunFixture(b)
	benchmarkSteadyRuns(b, sim, tr)
}

// benchmarkSteadyRuns times repeated runs of tr on one reused Sim, after a
// warm-up run has filled its flow tables and lazy server pools.
func benchmarkSteadyRuns(b *testing.B, sim *nicsim.Sim, tr *workload.Trace) {
	if _, err := sim.RunContext(context.Background(), tr); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(tr.Packets)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunContext(context.Background(), tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimRunScan measures the simulator where the memory path, not
// CIR dispatch, dominates: the simScanFixture variants (DPI over 1400-byte
// payloads, and full LPM-10k rule scans over 64k flows), in steady state
// like BenchmarkSimRun. TestAllocBudget holds the same fixtures to the
// allocs-per-packet contract.
func BenchmarkSimRunScan(b *testing.B) {
	for _, name := range simScanFixtures {
		b.Run(name, func(b *testing.B) {
			sim, tr := simScanFixture(b, name)
			benchmarkSteadyRuns(b, sim, tr)
		})
	}
}

// simShardFixture builds the sharded-engine fixture: the BenchmarkSimRun
// firewall configuration scaled to a trace long enough to decompose into 16
// windows, with the decode cache warm so iterations measure shard setup,
// simulation, and merge rather than pcap decoding.
func simShardFixture(tb testing.TB) (nicsim.Config, *workload.Trace) {
	tb.Helper()
	spec := nf.Firewall(65536)
	prog := spec.MustCompile()
	nic := lnic.Netronome()
	cfg := nicsim.Config{
		NIC: nic, Prog: prog, Place: nicsim.DefaultPlacement(nic, prog),
		Preload: spec.PreloadEntries, Seed: 11,
	}
	prof := workload.DefaultProfile()
	prof.Packets = 262144
	prof.Flows = 1024
	tr, err := workload.GenerateContext(context.Background(), prof)
	if err != nil {
		tb.Fatal(err)
	}
	tr.Decoded()
	return cfg, tr
}

// BenchmarkSimRunSharded measures the sharded engine end to end on a
// 256k-packet trace split into 16 windows: per-shard simulator construction
// (state preload included), the parallel window runs, and the trace-index
// merge. Workers follow GOMAXPROCS, which never changes the merged Result —
// only wall-clock time. bench_guard pins ns/op and allocs/op
// (testdata/bench_baseline.json); see DESIGN.md "Sharded simulation" before
// re-baselining.
func BenchmarkSimRunSharded(b *testing.B) {
	cfg, tr := simShardFixture(b)
	opts := nicsim.ShardOpts{Workers: -1, Window: nicsim.DefaultShardWindow}
	if _, err := nicsim.RunShardedContext(context.Background(), cfg, tr, opts); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(tr.Packets)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nicsim.RunShardedContext(context.Background(), cfg, tr, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartial regenerates the §6 partial-offloading cut sweep.
func BenchmarkPartial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.Partial(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}
