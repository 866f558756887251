package predict

import (
	"context"
	"math"
	"testing"

	"clara/internal/cir"
	"clara/internal/lnic"
	"clara/internal/mapper"
	"clara/internal/nf"
	"clara/internal/nicsim"
	"clara/internal/symexec"
	"clara/internal/workload"
)

// pipeline runs the production workflow for a spec through a Pipeline:
// compile, enumerate → annotate → map → predict, the steps of
// NF.PredictContext. It returns the prediction, the mapping and the program.
func pipeline(tb testing.TB, spec nf.Spec, nic *lnic.LNIC, wl mapper.Workload, h mapper.Hints) (*Prediction, *mapper.Mapping, *cir.Program) {
	tb.Helper()
	ctx := context.Background()
	p, err := NewPipeline(spec.MustCompile())
	if err != nil {
		tb.Fatal(err)
	}
	m, err := p.Map(ctx, nic, wl, h)
	if err != nil {
		tb.Fatal(err)
	}
	pred, err := p.PredictMapped(ctx, nic, m, wl, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return pred, m, p.Program
}

// measure runs the simulator for the same spec and mapping.
func measure(t *testing.T, spec nf.Spec, prog *cir.Program, nic *lnic.LNIC, m *mapper.Mapping, p workload.Profile) *nicsim.Result {
	t.Helper()
	sim, err := nicsim.NewContext(context.Background(), nicsim.Config{
		NIC: nic, Prog: prog, Place: nicsim.PlacementOf(m),
		Preload: spec.PreloadEntries, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.GenerateContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunContext(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors > 0 {
		t.Fatalf("simulation errors: %d", res.Errors)
	}
	return res
}

func relErr(predicted, actual float64) float64 {
	if actual == 0 {
		return math.Inf(1)
	}
	return math.Abs(predicted-actual) / actual
}

func TestPredictionAccuracyLPM(t *testing.T) {
	wp := workload.DefaultProfile()
	wp.Packets = 4000
	wl := mapper.FromProfile(wp)
	spec := nf.LPM(10000)
	nic := lnic.Netronome()
	// The paper's LPM validation exercises the software match/action path.
	pred, m, prog := pipeline(t, spec, nic, wl, mapper.Hints{DisableFlowCache: true})
	res := measure(t, spec, prog, nic, m, wp)
	e := relErr(pred.MeanCycles, res.MeanLatency())
	t.Logf("LPM: predicted %.0f actual %.0f (err %.1f%%)", pred.MeanCycles, res.MeanLatency(), e*100)
	if e > 0.25 {
		t.Errorf("LPM prediction error %.1f%% exceeds 25%% (paper: 12%%)", e*100)
	}
}

func TestPredictionAccuracyVNF(t *testing.T) {
	wp := workload.DefaultProfile()
	wp.Packets = 3000
	wp.PayloadBytes = 600
	wl := mapper.FromProfile(wp)
	spec := nf.VNFChain()
	nic := lnic.Netronome()
	pred, m, prog := pipeline(t, spec, nic, wl, mapper.Hints{})
	res := measure(t, spec, prog, nic, m, wp)
	e := relErr(pred.MeanCycles, res.MeanLatency())
	t.Logf("VNF: predicted %.0f actual %.0f (err %.1f%%)", pred.MeanCycles, res.MeanLatency(), e*100)
	if e > 0.25 {
		t.Errorf("VNF prediction error %.1f%% exceeds 25%% (paper: 3%%)", e*100)
	}
}

func TestPredictionAccuracyNAT(t *testing.T) {
	wp := workload.DefaultProfile()
	wp.Packets = 4000
	wp.TCPFraction = 1.0
	wl := mapper.FromProfile(wp)
	spec := nf.NAT(true)
	nic := lnic.Netronome()
	pred, m, prog := pipeline(t, spec, nic, wl, mapper.Hints{})
	res := measure(t, spec, prog, nic, m, wp)
	e := relErr(pred.MeanCycles, res.MeanLatency())
	t.Logf("NAT: predicted %.0f actual %.0f (err %.1f%%)", pred.MeanCycles, res.MeanLatency(), e*100)
	if e > 0.25 {
		t.Errorf("NAT prediction error %.1f%% exceeds 25%% (paper: 7%%)", e*100)
	}
}

func TestPerClassProfile(t *testing.T) {
	wp := workload.DefaultProfile()
	wp.TCPFraction = 1.0
	wl := mapper.FromProfile(wp)
	pred, _, _ := pipeline(t, nf.Firewall(65536), lnic.Netronome(), wl, mapper.Hints{DisableFlowCache: true})
	// §3.5: SYN packets (state setup) must predict slower than established.
	var syn, est float64
	for _, c := range pred.PerClass {
		if c.Attrs.Proto != "tcp" {
			continue
		}
		if c.Attrs.SYN && !c.Attrs.FlowSeen {
			syn = c.Cycles
		}
		if !c.Attrs.SYN && c.Attrs.FlowSeen {
			est = c.Cycles
		}
	}
	if syn == 0 || est == 0 {
		t.Fatalf("classes missing:\n%s", pred)
	}
	if syn <= est {
		t.Errorf("SYN class %.0f ≤ established %.0f", syn, est)
	}
	// Probabilities sum to 1.
	total := 0.0
	for _, c := range pred.PerClass {
		total += c.Prob
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("class probabilities sum to %v", total)
	}
}

func TestThroughputBottleneck(t *testing.T) {
	wl := mapper.FromProfile(workload.DefaultProfile())
	pred, _, _ := pipeline(t, nf.DPI(), lnic.Netronome(), wl, mapper.Hints{})
	if pred.ThroughputPPS <= 0 || math.IsInf(pred.ThroughputPPS, 0) {
		t.Errorf("throughput = %v", pred.ThroughputPPS)
	}
	if pred.Bottleneck == "" {
		t.Error("no bottleneck identified")
	}
	if pred.Saturated {
		t.Error("60kpps should not saturate the NIC")
	}
}

func TestSaturationDetected(t *testing.T) {
	wp := workload.DefaultProfile()
	wp.RatePPS = 1e9 // absurd offered load
	wp.PayloadBytes = 1400
	wl := mapper.FromProfile(wp)
	pred, _, _ := pipeline(t, nf.DPI(), lnic.Netronome(), wl, mapper.Hints{})
	if !pred.Saturated {
		t.Errorf("1Gpps DPI load should saturate; throughput=%v", pred.ThroughputPPS)
	}
}

func TestQueueingGrowsWithRate(t *testing.T) {
	low := workload.DefaultProfile()
	low.RatePPS = 10_000
	high := workload.DefaultProfile()
	high.RatePPS = 2_000_000
	nic := lnic.Netronome()
	pl, _, _ := pipeline(t, nf.VNFChain(), nic, mapper.FromProfile(low), mapper.Hints{})
	ph, _, _ := pipeline(t, nf.VNFChain(), nic, mapper.FromProfile(high), mapper.Hints{})
	if ph.QueueCycles <= pl.QueueCycles {
		t.Errorf("queueing at 2Mpps (%.1f) not above 10kpps (%.1f)", ph.QueueCycles, pl.QueueCycles)
	}
}

func TestNoQueueingOption(t *testing.T) {
	wl := mapper.FromProfile(workload.DefaultProfile())
	pl, err := NewPipeline(nf.Firewall(65536).MustCompile())
	if err != nil {
		t.Fatal(err)
	}
	p, err := pl.Predict(context.Background(), lnic.Netronome(), wl, mapper.Hints{}, Options{NoQueueing: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.QueueCycles != 0 {
		t.Errorf("queue cycles = %v with NoQueueing", p.QueueCycles)
	}
}

func TestPredictionScalesWithPayload(t *testing.T) {
	nic := lnic.Netronome()
	cycles := func(payload int) float64 {
		wp := workload.DefaultProfile()
		wp.PayloadBytes = payload
		p, _, _ := pipeline(t, nf.DPI(), nic, mapper.FromProfile(wp), mapper.Hints{})
		return p.MeanCycles
	}
	small, large := cycles(100), cycles(1200)
	if large < 5*small {
		t.Errorf("DPI prediction: 100B=%.0f 1200B=%.0f — want steep growth", small, large)
	}
}

func TestPredictionScalesWithLPMEntries(t *testing.T) {
	nic := lnic.Netronome()
	wl := mapper.FromProfile(workload.DefaultProfile())
	cycles := func(entries int) float64 {
		p, _, _ := pipeline(t, nf.LPM(entries), nic, wl, mapper.Hints{DisableFlowCache: true})
		return p.MeanCycles
	}
	if c1, c2 := cycles(5000), cycles(30000); c2 < 4*c1 {
		t.Errorf("LPM prediction: 5k=%.0f 30k=%.0f — want ≈6x growth", c1, c2)
	}
}

func TestPredictionStringSmoke(t *testing.T) {
	wl := mapper.FromProfile(workload.DefaultProfile())
	p, _, _ := pipeline(t, nf.Firewall(65536), lnic.Netronome(), wl, mapper.Hints{})
	s := p.String()
	if len(s) == 0 {
		t.Error("empty prediction string")
	}
}

func BenchmarkPredictVNF(b *testing.B) {
	wl := mapper.FromProfile(workload.DefaultProfile())
	nic := lnic.Netronome()
	_, m, prog := pipeline(b, nf.VNFChain(), nic, wl, mapper.Hints{})
	classes, err := symexec.EnumerateContext(context.Background(), prog)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := PredictWithClasses(prog, classes, m, nic, wl, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEnergyEfficiencyOrdering(t *testing.T) {
	// The E3 motivation: NPU cycles are cheap, so processing the same NF on
	// the Netronome must cost less energy per packet than on the ARM SoC,
	// whose cores burn 3x more per cycle (and the host would be worse yet).
	wl := mapper.FromProfile(workload.DefaultProfile())
	energyOn := func(nic *lnic.LNIC) float64 {
		p, _, _ := pipeline(t, nf.Firewall(65536), nic, wl, mapper.Hints{})
		if p.EnergyNJ <= 0 {
			t.Fatalf("%s: energy %v", nic.Name, p.EnergyNJ)
		}
		return p.EnergyNJ
	}
	netro := energyOn(lnic.Netronome())
	arm := energyOn(lnic.ARMSoC())
	if netro >= arm {
		t.Errorf("netronome %v nJ ≥ armsoc %v nJ; NPU cores should be cheaper", netro, arm)
	}
}

func TestPerClassEnergyTracksCycles(t *testing.T) {
	wl := mapper.FromProfile(workload.DefaultProfile())
	pred, _, _ := pipeline(t, nf.Firewall(65536), lnic.Netronome(), wl, mapper.Hints{DisableFlowCache: true})
	for _, c := range pred.PerClass {
		if c.Cycles > 0 && c.EnergyNJ <= 0 {
			t.Errorf("class %s: %v cycles but %v nJ", c.Name, c.Cycles, c.EnergyNJ)
		}
	}
	// More cycles should not mean less energy across classes of one NF.
	var syn, est ClassPrediction
	for _, c := range pred.PerClass {
		switch c.Name {
		case "tcp+syn+new":
			syn = c
		case "tcp+seen":
			est = c
		}
	}
	if syn.Cycles > est.Cycles && syn.EnergyNJ <= est.EnergyNJ {
		t.Errorf("SYN class has more cycles (%v>%v) but less energy (%v≤%v)",
			syn.Cycles, est.Cycles, syn.EnergyNJ, est.EnergyNJ)
	}
}

// TestPredictRejectsUncompilableProgram is the regression test for a panic
// on malformed input: PredictWithClasses on a program reading a register
// outside its register file must return the compile error instead of
// panicking while it prices the first class.
func TestPredictRejectsUncompilableProgram(t *testing.T) {
	prog := &cir.Program{Name: "bad", NumRegs: 1, Blocks: []cir.Block{{
		Instrs: []cir.Instr{{Op: cir.OpAdd, Dst: 0, Args: []cir.Reg{0, 5}}},
		Term:   cir.Terminator{Kind: cir.TermReturn, Ret: 0},
	}}}
	classes := []symexec.Class{{Attrs: symexec.Attrs{Proto: "tcp"}}}
	wl := mapper.Workload{Flows: 1000, RatePPS: 1e5, AvgPayload: 256, AvgWire: 310}
	_, err := PredictWithClasses(prog, classes, &mapper.Mapping{}, lnic.Netronome(), wl, Options{})
	want := `predict: cir: compile: block 0 instr 0 (r0 = add r0 r5): register r5 out of range (NumRegs=1)`
	if err == nil || err.Error() != want {
		t.Fatalf("PredictWithClasses(malformed) error = %v, want %q", err, want)
	}
}
