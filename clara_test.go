package clara

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"clara/internal/nf"
)

const fwSrc = `nf firewall {
	state conns : map<13, 8>[65536];

	handler(pkt) {
		if (!parse(ipv4)) { return pass; }
		var k = flow_key();
		if (map_lookup(conns, k)) {
			emit(0);
			return pass;
		}
		if (parse(tcp) && (field(tcp, flags) & 0x02)) {
			map_put(conns, k, 1, 0);
			emit(0);
			return pass;
		}
		return drop;
	}
}`

func TestEndToEndWorkflow(t *testing.T) {
	nfo, err := CompileNF(fwSrc)
	if err != nil {
		t.Fatal(err)
	}
	if nfo.Name() != "firewall" {
		t.Errorf("name = %q", nfo.Name())
	}
	target, err := NewTarget("netronome")
	if err != nil {
		t.Fatal(err)
	}
	wl, err := ParseWorkload("packets=5000,rate=60000,flows=500,tcp=1.0,size=300")
	if err != nil {
		t.Fatal(err)
	}
	m, err := nfo.MapContext(context.Background(), target, wl, Hints{})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := nfo.PredictMappedContext(context.Background(), target, m, wl, PredictOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pred.MeanCycles <= 0 || pred.ThroughputPPS <= 0 {
		t.Fatalf("prediction incomplete: %+v", pred)
	}

	// Measure the same mapping on the simulator and compare.
	tp, err := ParseTrafficProfile("packets=5000,rate=60000,flows=500,tcp=1.0,size=300")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := GenerateTraceContext(context.Background(), tp)
	if err != nil {
		t.Fatal(err)
	}
	meas, err := nfo.MeasureOptionsContext(context.Background(), target, m, tr, 3, MeasureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	actual := meas.MeanLatency()
	rel := (pred.MeanCycles - actual) / actual
	if rel < 0 {
		rel = -rel
	}
	t.Logf("firewall: predicted %.0f actual %.0f (err %.1f%%)", pred.MeanCycles, actual, rel*100)
	if rel > 0.30 {
		t.Errorf("end-to-end prediction error %.0f%% too large", rel*100)
	}
}

func TestTargetsRegistry(t *testing.T) {
	names := Targets()
	if len(names) != 3 {
		t.Fatalf("targets = %v", names)
	}
	for _, n := range names {
		tg, err := NewTarget(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := tg.Validate(); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
	if _, err := NewTarget("nosuch"); err == nil {
		t.Error("want error for unknown target")
	}
}

func TestCompileErrorsSurface(t *testing.T) {
	if _, err := CompileNF("nf x {"); err == nil {
		t.Error("want compile error")
	}
	if _, err := LoadNF("/nonexistent/path.nf"); err == nil {
		t.Error("want load error")
	}
}

func TestClasses(t *testing.T) {
	nfo, err := CompileNF(fwSrc)
	if err != nil {
		t.Fatal(err)
	}
	cls, err := nfo.ClassesContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(cls) < 3 {
		t.Errorf("classes = %d", len(cls))
	}
}

func TestWorkloadFromPcap(t *testing.T) {
	tp, _ := ParseTrafficProfile("packets=500,flows=50")
	tr, err := GenerateTraceContext(context.Background(), tp)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	wl, tr2, err := WorkloadFromPcapContext(context.Background(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr2.Packets) != 500 {
		t.Errorf("reread packets = %d", len(tr2.Packets))
	}
	if wl.Flows == 0 || wl.AvgPayload == 0 {
		t.Errorf("workload = %+v", wl)
	}
}

func TestAdvise(t *testing.T) {
	// DPI should be infeasible on the pipeline ASIC but rank the remaining
	// two targets.
	nfo, err := CompileNF(nf.DPI().Source)
	if err != nil {
		t.Fatal(err)
	}
	wl, _ := ParseWorkload("size=600")
	advice, err := AdviseContext(context.Background(), nfo, wl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(advice) != 3 {
		t.Fatalf("advice entries = %d", len(advice))
	}
	feasible := 0
	for _, a := range advice {
		if a.Feasible {
			feasible++
			if a.MeanNanos <= 0 {
				t.Errorf("%s: no latency", a.Target)
			}
		} else if !strings.Contains(a.Reason, "infeasible") {
			t.Errorf("%s: unexpected reason %q", a.Target, a.Reason)
		}
	}
	if feasible != 2 {
		t.Errorf("feasible targets = %d, want 2 (ASIC cannot host DPI)", feasible)
	}
	// Feasible entries must come first, sorted by latency.
	if !advice[0].Feasible || advice[len(advice)-1].Feasible {
		t.Errorf("advice ordering wrong: %+v", advice)
	}
}

func TestMicrobenchFacade(t *testing.T) {
	target, _ := NewTarget("netronome")
	rep, err := MicrobenchContext(context.Background(), target, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Params) == 0 {
		t.Error("no parameters recovered")
	}
}

func TestGreedyFacade(t *testing.T) {
	nfo, err := CompileNF(fwSrc)
	if err != nil {
		t.Fatal(err)
	}
	target, _ := NewTarget("netronome")
	wl, _ := ParseWorkload("")
	opt, err := nfo.MapContext(context.Background(), target, wl, Hints{})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := nfo.pipe.Greedy(context.Background(), target, wl, Hints{})
	if err != nil {
		t.Fatal(err)
	}
	if gr.CostCycles < opt.CostCycles-1e-6 {
		t.Errorf("greedy %v beat ILP %v", gr.CostCycles, opt.CostCycles)
	}
}

func TestAnalyzePartial(t *testing.T) {
	nfo, err := CompileNF(nf.DPI().Source)
	if err != nil {
		t.Fatal(err)
	}
	target, _ := NewTarget("netronome")
	wl, _ := ParseWorkload("size=800")
	an, err := AnalyzePartialContext(context.Background(), nfo, target, wl, DefaultPCIe(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if an.Best == nil || an.FullNIC == nil || an.FullHost == nil {
		t.Fatalf("analysis incomplete: %+v", an)
	}
	if len(an.Cuts) != len(nfo.Graph.Nodes)+1 {
		t.Errorf("cuts = %d, want %d", len(an.Cuts), len(nfo.Graph.Nodes)+1)
	}
	// Host cores burn more energy than NIC cores (the E3 motivation).
	if an.FullHost.EnergyNJ <= an.FullNIC.EnergyNJ {
		t.Errorf("host %v nJ ≤ NIC %v nJ", an.FullHost.EnergyNJ, an.FullNIC.EnergyNJ)
	}
}

func TestPredictionEnergy(t *testing.T) {
	nfo, err := CompileNF(fwSrc)
	if err != nil {
		t.Fatal(err)
	}
	target, _ := NewTarget("netronome")
	wl, _ := ParseWorkload("rate=60000")
	pred, err := nfo.PredictContext(context.Background(), target, wl, Hints{})
	if err != nil {
		t.Fatal(err)
	}
	if pred.EnergyNJ <= 0 {
		t.Errorf("energy = %v nJ", pred.EnergyNJ)
	}
	if pred.PowerWatts <= 0 {
		t.Errorf("power = %v W", pred.PowerWatts)
	}
	// Sanity: per-packet energy should be well under a microjoule for a
	// few-hundred-cycle NF on sub-nJ/cycle cores.
	if pred.EnergyNJ > 1000 {
		t.Errorf("energy %v nJ implausibly high", pred.EnergyNJ)
	}
}
