package mapper

import (
	"context"
	"strings"
	"testing"

	"clara/internal/cir"
	"clara/internal/lnic"
	"clara/internal/nf"
	"clara/internal/workload"
)

func defaultWL() Workload {
	return FromProfile(workload.DefaultProfile())
}

func graphFor(t *testing.T, spec nf.Spec) *cir.Graph {
	t.Helper()
	g, err := cir.BuildGraph(spec.MustCompile())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestMapAllNFsOnAllProfiles(t *testing.T) {
	for pname, mk := range lnic.Profiles() {
		for nname, spec := range nf.All() {
			nic := mk()
			g := graphFor(t, spec)
			m, err := Map(g, nic, defaultWL(), Hints{})
			if err != nil {
				// DPI-class NFs are legitimately unmappable on the pipeline
				// ASIC (no general cores for payload loops).
				var inf *ErrInfeasible
				if pname == "pipeline-asic" && asInfeasible(err, &inf) {
					continue
				}
				t.Errorf("%s on %s: %v", nname, pname, err)
				continue
			}
			if len(m.NodeUnit) != len(g.Nodes) {
				t.Errorf("%s on %s: incomplete node assignment", nname, pname)
			}
			if m.CostCycles <= 0 {
				t.Errorf("%s on %s: non-positive cost %v", nname, pname, m.CostCycles)
			}
			for _, obj := range g.Prog.State {
				if _, ok := m.StateMem[obj.Name]; !ok {
					t.Errorf("%s on %s: state %s unplaced", nname, pname, obj.Name)
				}
			}
		}
	}
}

func asInfeasible(err error, target **ErrInfeasible) bool {
	e, ok := err.(*ErrInfeasible)
	if ok {
		*target = e
	}
	return ok
}

func TestDPIInfeasibleOnPipelineASIC(t *testing.T) {
	g := graphFor(t, nf.DPI())
	_, err := Map(g, lnic.PipelineASIC(), defaultWL(), Hints{})
	var inf *ErrInfeasible
	if !asInfeasible(err, &inf) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if !strings.Contains(inf.Reason, "payloadloop") {
		t.Errorf("reason = %q, want mention of the payload loop", inf.Reason)
	}
}

func TestNATChecksumGoesToAccelerator(t *testing.T) {
	wl := defaultWL()
	wl.AvgPayload = 1000
	wl.AvgWire = 1054
	g := graphFor(t, nf.NAT(true))
	m, err := Map(g, lnic.Netronome(), wl, Hints{})
	if err != nil {
		t.Fatal(err)
	}
	if !m.ChecksumOnAccel {
		t.Errorf("solver kept 1000B checksums in software:\n%s", m.Describe(g, lnic.Netronome()))
	}
	// Forbidding the accelerator must raise the cost.
	m2, err := Map(g, lnic.Netronome(), wl, Hints{DisableChecksumAccel: true})
	if err != nil {
		t.Fatal(err)
	}
	if m2.ChecksumOnAccel {
		t.Error("hint ignored")
	}
	if m2.CostCycles <= m.CostCycles {
		t.Errorf("software checksum cost %v ≤ accelerated %v", m2.CostCycles, m.CostCycles)
	}
}

func TestLPMFlowCacheChosenUnderReuse(t *testing.T) {
	wl := defaultWL()
	wl.FlowReuse = 0.95
	wl.Flows = 1000
	g := graphFor(t, nf.LPM(20000))
	m, err := Map(g, lnic.Netronome(), wl, Hints{})
	if err != nil {
		t.Fatal(err)
	}
	if !m.UseFlowCache["routes"] {
		t.Errorf("solver skipped the flow cache at 95%% reuse:\n%s", m.Describe(g, lnic.Netronome()))
	}
	// With the flow cache disabled the mapping must cost much more.
	m2, err := Map(g, lnic.Netronome(), wl, Hints{DisableFlowCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if m2.CostCycles < 5*m.CostCycles {
		t.Errorf("flow-cache benefit too small: %v vs %v", m.CostCycles, m2.CostCycles)
	}
}

func TestSmallStateGoesToFastMemory(t *testing.T) {
	// A tiny firewall table should be placed in CTM (or local), not EMEM.
	g := graphFor(t, nf.Firewall(1000))
	nic := lnic.Netronome()
	wl := defaultWL()
	wl.Flows = 800
	m, err := Map(g, nic, wl, Hints{DisableFlowCache: true})
	if err != nil {
		t.Fatal(err)
	}
	region := nic.Mems[m.StateMem["conns"]].Name
	if region != "ctm" && region != "local" {
		t.Errorf("1000-entry table placed in %s, want ctm", region)
	}
}

func TestHugeStateForcedToEMEM(t *testing.T) {
	// 2M-entry table (~42 MB) only fits the EMEM.
	g := graphFor(t, nf.Firewall(2000000))
	nic := lnic.Netronome()
	m, err := Map(g, nic, defaultWL(), Hints{})
	if err != nil {
		t.Fatal(err)
	}
	if nic.Mems[m.StateMem["conns"]].Name != "emem" {
		t.Errorf("42MB table placed in %s", nic.Mems[m.StateMem["conns"]].Name)
	}
}

func TestPinStateHint(t *testing.T) {
	g := graphFor(t, nf.Firewall(1000))
	nic := lnic.Netronome()
	m, err := Map(g, nic, defaultWL(), Hints{PinState: map[string]string{"conns": "emem"}})
	if err != nil {
		t.Fatal(err)
	}
	if nic.Mems[m.StateMem["conns"]].Name != "emem" {
		t.Errorf("pin ignored: placed in %s", nic.Mems[m.StateMem["conns"]].Name)
	}
	if _, err := Map(g, nic, defaultWL(), Hints{PinState: map[string]string{"conns": "nosuch"}}); err == nil {
		t.Error("want error for unknown region in pin")
	}
}

func TestPipelineOrderRespected(t *testing.T) {
	for _, spec := range nf.All() {
		g, err := cir.BuildGraph(spec.MustCompile())
		if err != nil {
			t.Fatal(err)
		}
		nic := lnic.Netronome()
		m, err := Map(g, nic, defaultWL(), Hints{})
		if err != nil {
			continue
		}
		for _, e := range g.Edges {
			from := nic.Units[m.NodeUnit[e.From]].Stage
			to := nic.Units[m.NodeUnit[e.To]].Stage
			if to < from {
				t.Errorf("%s: edge n%d(stage %d) → n%d(stage %d) runs backwards",
					spec.Name, e.From, from, e.To, to)
			}
		}
	}
}

func TestGreedyNeverBeatsILP(t *testing.T) {
	for name, spec := range nf.All() {
		g := graphFor(t, spec)
		nic := lnic.Netronome()
		wl := defaultWL()
		opt, err := Map(g, nic, wl, Hints{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		gr, err := Greedy(g, nic, wl, Hints{})
		if err != nil {
			t.Fatalf("%s greedy: %v", name, err)
		}
		if gr.CostCycles < opt.CostCycles-1e-6 {
			t.Errorf("%s: greedy %v beat ILP %v — objective mismatch", name, gr.CostCycles, opt.CostCycles)
		}
	}
}

func TestForceFlowCacheHint(t *testing.T) {
	wl := defaultWL()
	wl.FlowReuse = 0.1 // low reuse: solver would not pick the cache itself
	g := graphFor(t, nf.Firewall(65536))
	m, err := Map(g, lnic.Netronome(), wl, Hints{ForceFlowCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if !m.UseFlowCache["conns"] {
		t.Error("ForceFlowCache ignored")
	}
}

func TestSoftwareParseHint(t *testing.T) {
	g := graphFor(t, nf.Firewall(65536))
	m, err := Map(g, lnic.Netronome(), defaultWL(), Hints{SoftwareParse: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.ParseOnEngine {
		t.Error("SoftwareParse ignored")
	}
}

func TestFromProfileDerivation(t *testing.T) {
	p := workload.DefaultProfile()
	p.Packets = 10000
	p.Flows = 1000
	wl := FromProfile(p)
	if wl.FlowReuse < 0.85 || wl.FlowReuse > 0.95 {
		t.Errorf("flow reuse = %v, want ≈0.9", wl.FlowReuse)
	}
	if wl.AvgPayload != 300 {
		t.Errorf("payload = %v", wl.AvgPayload)
	}
}

func TestFromStatsMatchesGenerated(t *testing.T) {
	p := workload.DefaultProfile()
	p.Packets = 5000
	tr, err := workload.GenerateContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	wl := FromStats(tr.Stats())
	if wl.Flows == 0 || wl.AvgPayload == 0 || wl.RatePPS == 0 {
		t.Errorf("stats-derived workload incomplete: %+v", wl)
	}
}

func TestDescribeSmoke(t *testing.T) {
	g := graphFor(t, nf.LPM(5000))
	nic := lnic.Netronome()
	m, err := Map(g, nic, defaultWL(), Hints{})
	if err != nil {
		t.Fatal(err)
	}
	d := m.Describe(g, nic)
	if !strings.Contains(d, "routes") || !strings.Contains(d, "mapping of lpm") {
		t.Errorf("describe output:\n%s", d)
	}
}

func BenchmarkMapVNFChain(b *testing.B) {
	g, err := cir.BuildGraph(nf.VNFChain().MustCompile())
	if err != nil {
		b.Fatal(err)
	}
	nic := lnic.Netronome()
	wl := defaultWL()
	for i := 0; i < b.N; i++ {
		if _, err := Map(g, nic, wl, Hints{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMapDeleteStateCost prices a one-delete program: map_delete is one
// bucket store under the vcall price rule (and in the simulator), so the
// state's expected cost is one access, not the two of a map_put.
func TestMapDeleteStateCost(t *testing.T) {
	b := cir.NewBuilder("delete-one")
	st := b.DeclareState(cir.StateObj{Name: "t", Kind: cir.StateMap, KeySize: 13, ValueSize: 8, Capacity: 1024})
	k := b.VCall(cir.VCFlowKey, "")
	b.VCallVoid(cir.VCMapDelete, st, k)
	b.ReturnConst(cir.VerdictPass)
	g, err := cir.BuildGraph(b.MustProgram())
	if err != nil {
		t.Fatal(err)
	}
	nic := lnic.Netronome()
	cm := NewCostModel(nic, defaultWL())
	obj := g.Prog.State[0]
	use := StateUsage(g, g.ExpectedVisits(), nil)["t"]
	p := nic.VCallPrice(nil, cir.VCMapDelete, lnic.VCallIn{Warm: true})
	if p.Probes+p.Touches != 1 {
		t.Fatalf("rule prices map_delete at %v accesses, want 1", p.Probes+p.Touches)
	}
	for region := range nic.Mems {
		if _, ok := nic.AccessCycles(cm.npu, region, false); !ok {
			continue
		}
		want := cm.StateAccess(obj, region)
		if got := cm.StateCost(obj, use, region); got != want {
			t.Errorf("region %s: one map_delete costs %v, want one access %v", nic.Mems[region].Name, got, want)
		}
	}
}
