package partial

import (
	"context"
	"math"
	"strings"
	"testing"

	"clara/internal/cir"
	"clara/internal/lnic"
	"clara/internal/mapper"
	"clara/internal/nf"
	"clara/internal/symexec"
	"clara/internal/workload"
)

func analyzed(t *testing.T, spec nf.Spec, nic *lnic.LNIC, mutate func(*workload.Profile)) *Analysis {
	t.Helper()
	prog := spec.MustCompile()
	g, err := cir.BuildGraph(prog)
	if err != nil {
		t.Fatal(err)
	}
	prof := workload.DefaultProfile()
	if mutate != nil {
		mutate(&prof)
	}
	wl := mapper.FromProfile(prof)
	classes, err := symexec.EnumerateContext(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	g = symexec.AnnotatedGraph(g, classes, symexec.WeightsFor(wl))
	an, err := AnalyzeContext(context.Background(), g, nic, lnic.HostX86(), wl, DefaultPCIe(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return an
}

func TestCutSweepCoversExtremes(t *testing.T) {
	an := analyzed(t, nf.Firewall(65536), lnic.Netronome(), nil)
	if an.FullNIC == nil || an.FullHost == nil {
		t.Fatal("extreme cuts missing")
	}
	if an.FullNIC.CrossProb != 0 {
		t.Errorf("full-NIC cut crosses with p=%v", an.FullNIC.CrossProb)
	}
	if an.FullHost.CrossProb != 1 {
		t.Errorf("full-host cut cross prob = %v, want 1", an.FullHost.CrossProb)
	}
	if an.FullNIC.PCIeNanos != 0 {
		t.Errorf("full-NIC cut pays PCIe: %v ns", an.FullNIC.PCIeNanos)
	}
	// Cut indexes must be 0..N ascending.
	for i, c := range an.Cuts {
		if c.Index != i {
			t.Fatalf("cut %d has index %d", i, c.Index)
		}
	}
}

func TestFirewallFavorsFullOffload(t *testing.T) {
	// A cheap stateful firewall should stay entirely on the NIC: crossing
	// PCIe costs microseconds against a sub-microsecond NF.
	an := analyzed(t, nf.Firewall(65536), lnic.Netronome(), nil)
	if an.Best.Index != len(an.Cuts)-1 {
		t.Errorf("best cut leaves %d nodes off-NIC:\n%s", len(an.Cuts)-1-an.Best.Index, an)
	}
}

func TestDPIInfeasiblePrefixesOnASIC(t *testing.T) {
	// On the pipeline ASIC the DPI payload loop cannot run NIC-side, so
	// every cut that keeps it in the prefix must be infeasible, and the
	// best feasible cut pushes the scan to the host.
	an := analyzed(t, nf.DPI(), lnic.PipelineASIC(), nil)
	if an.FullNIC.Feasible {
		t.Error("full-NIC DPI on the ASIC should be infeasible")
	}
	if an.Best == nil || !an.Best.Feasible {
		t.Fatal("no feasible cut")
	}
	if len(an.Best.HostNodes) == 0 {
		t.Error("best cut hosts nothing despite infeasible NIC suffix")
	}
	if !strings.Contains(an.String(), "infeasible") {
		t.Error("analysis table does not mark infeasible cuts")
	}
}

func TestPCIeChargedOnlyWhenCrossing(t *testing.T) {
	an := analyzed(t, nf.NAT(true), lnic.Netronome(), nil)
	for _, c := range an.Cuts {
		if !c.Feasible {
			continue
		}
		if c.CrossProb == 0 && c.PCIeNanos > 0 && c.Index == len(an.Cuts)-1 {
			t.Errorf("cut %d: PCIe %v ns without crossing", c.Index, c.PCIeNanos)
		}
		if c.CrossProb > 0 && c.PCIeNanos <= 0 {
			t.Errorf("cut %d: crossing p=%v but no PCIe cost", c.Index, c.CrossProb)
		}
	}
}

func TestEnergyPrefersNICCores(t *testing.T) {
	// SmartNIC cores are ~12x more efficient per cycle; for compute-heavy
	// DPI the energy-optimal cut should keep the scan NIC-side even though
	// host cores are faster.
	an := analyzed(t, nf.DPI(), lnic.Netronome(), func(p *workload.Profile) {
		p.PayloadBytes = 1200
	})
	if an.EnergyBest == nil {
		t.Fatal("no energy-optimal cut")
	}
	if an.EnergyBest.Index != len(an.Cuts)-1 {
		t.Errorf("energy-optimal cut = %d (full NIC = %d):\n%s",
			an.EnergyBest.Index, len(an.Cuts)-1, an)
	}
	if an.FullHost.EnergyNJ <= an.FullNIC.EnergyNJ {
		t.Errorf("host energy %v ≤ NIC energy %v; host cores should burn more",
			an.FullHost.EnergyNJ, an.FullNIC.EnergyNJ)
	}
}

func TestSharedStatePenalizesSplit(t *testing.T) {
	// The firewall's flow table is touched by lookup and insert nodes; a
	// cut separating them must pay PCIe round trips per remote operation,
	// making middle cuts worse than either extreme.
	an := analyzed(t, nf.Firewall(65536), lnic.Netronome(), nil)
	bestMiddle := math.Inf(1)
	for _, c := range an.Cuts {
		if !c.Feasible || c.Index == 0 || c.Index == len(an.Cuts)-1 {
			continue
		}
		if c.TotalNanos < bestMiddle {
			bestMiddle = c.TotalNanos
		}
	}
	if bestMiddle < an.FullNIC.TotalNanos {
		t.Errorf("a middle cut (%v ns) beats full offload (%v ns) despite shared state",
			bestMiddle, an.FullNIC.TotalNanos)
	}
}

func TestThroughputFinite(t *testing.T) {
	an := analyzed(t, nf.VNFChain(), lnic.Netronome(), nil)
	for _, c := range an.Cuts {
		if !c.Feasible {
			continue
		}
		if math.IsInf(c.ThroughputPPS, 0) || c.ThroughputPPS <= 0 {
			t.Errorf("cut %d throughput = %v", c.Index, c.ThroughputPPS)
		}
	}
}

func TestAnalyzeAllNFs(t *testing.T) {
	for name, spec := range nf.All() {
		spec := spec
		t.Run(name, func(t *testing.T) {
			an := analyzed(t, spec, lnic.Netronome(), nil)
			if an.Best == nil {
				t.Fatal("no best cut")
			}
			if s := an.String(); len(s) == 0 {
				t.Error("empty analysis string")
			}
		})
	}
}

func TestHostX86Valid(t *testing.T) {
	h := lnic.HostX86()
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.ClockGHz != 3.4 {
		t.Errorf("clock = %v, want 3.4 (paper's Xeon E5-2643)", h.ClockGHz)
	}
	cores := h.UnitsOfKind(lnic.UnitNPU)
	if len(cores) == 0 {
		t.Fatal("no host cores")
	}
	if !h.Units[cores[0]].HasFPU {
		t.Error("host cores need FPUs")
	}
	// The energy gap motivating offload (E3): host ≥ 10x NIC per cycle.
	nic := lnic.Netronome()
	npu := nic.Units[nic.UnitsOfKind(lnic.UnitNPU)[0]]
	if h.Units[cores[0]].NJPerCycle < 10*npu.NJPerCycle {
		t.Errorf("host %v nJ/cyc vs NPU %v — efficiency gap too small",
			h.Units[cores[0]].NJPerCycle, npu.NJPerCycle)
	}
}

// TestOpCountIncludesDeletes requires a remoted state's map_delete to cross
// PCIe like every other table operation.
func TestOpCountIncludesDeletes(t *testing.T) {
	wl := mapper.FromProfile(workload.DefaultProfile())
	if got := opCount(mapper.Usage{Deletes: 1}, wl); got != 1 {
		t.Fatalf("opCount of one delete = %v, want 1", got)
	}
}
