package nicsim

import (
	"context"
	"strings"
	"testing"

	"clara/internal/lnic"
	"clara/internal/nf"
	"clara/internal/workload"
)

// simulateFaults runs one NF spec under fault injection and returns the
// result (which carries the fault report).
func simulateFaults(t *testing.T, spec nf.Spec, faults *Faults, place func(*lnic.LNIC, Placement) Placement, mutate func(*workload.Profile)) *Result {
	t.Helper()
	nic := lnic.Netronome()
	prog := spec.MustCompile()
	pl := DefaultPlacement(nic, prog)
	if place != nil {
		pl = place(nic, pl)
	}
	sim, err := NewContext(context.Background(), Config{NIC: nic, Prog: prog, Place: pl, Preload: spec.PreloadEntries, Seed: 7, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunContext(context.Background(), smallTrace(t, mutate))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestParseFaults(t *testing.T) {
	f, err := ParseFaults("outage=crypto+checksum,degrade=checksum:4,queuecap=8,memfault=emem:0.001,corrupt=0.02,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	if !f.Outage["crypto"] || !f.Outage["checksum"] {
		t.Errorf("outage not parsed: %+v", f.Outage)
	}
	if f.Degrade["checksum"] != 4 {
		t.Errorf("degrade = %v", f.Degrade)
	}
	if f.QueueCap != 8 || f.MemFault["emem"] != 0.001 || f.Corrupt != 0.02 || f.Seed != 9 {
		t.Errorf("fields wrong: %+v", f)
	}
}

func TestParseFaultsEmpty(t *testing.T) {
	f, err := ParseFaults("   ")
	if err != nil || f != nil {
		t.Fatalf("ParseFaults(blank) = %+v, %v; want nil, nil", f, err)
	}
}

func TestParseFaultsErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus=1",
		"outage=warpdrive",   // unknown accelerator class
		"degrade=checksum:0", // multiplier must be ≥1
		"queuecap=-3",
		"corrupt=1.5",   // rate out of [0,1]
		"memfault=emem", // missing rate
	} {
		f, err := ParseFaults(spec)
		if err == nil {
			// Some errors only surface at Validate time (region names need a
			// NIC); those must still fail before any simulation starts.
			if verr := f.Validate(lnic.Netronome()); verr == nil {
				t.Errorf("ParseFaults(%q) accepted and validated", spec)
			}
		}
	}
}

func TestFaultsValidateRegion(t *testing.T) {
	f := &Faults{MemFault: map[string]float64{"nosuchmem": 0.5}}
	if err := f.Validate(lnic.Netronome()); err == nil {
		t.Fatal("Validate accepted unknown memory region")
	}
	if _, err := NewContext(context.Background(), Config{NIC: lnic.Netronome(), Prog: nf.Firewall(1024).MustCompile(),
		Place: DefaultPlacement(lnic.Netronome(), nf.Firewall(1024).MustCompile()), Faults: f}); err == nil {
		t.Fatal("New accepted invalid faults")
	}
}

func TestAccelOutageFallsBackToSoftware(t *testing.T) {
	spec := nf.NAT(true)
	big := func(p *workload.Profile) { p.PayloadBytes = 1000; p.TCPFraction = 1.0 }
	accel := func(nic *lnic.LNIC, p Placement) Placement { p.ChecksumOnAccel = true; return p }
	healthy := simulateFaults(t, spec, nil, accel, big)
	broken := simulateFaults(t, spec, &Faults{Outage: map[string]bool{"checksum": true}}, accel, big)
	if broken.Faults.AccelFallbacks["checksum"] == 0 {
		t.Fatalf("no checksum fallbacks recorded: %+v", broken.Faults)
	}
	if broken.Faults.FaultedPackets == 0 {
		t.Error("outage run reports zero faulted packets")
	}
	// Losing the accelerator forces the ~1700-cycle software checksum path.
	if broken.MeanLatency() <= healthy.MeanLatency() {
		t.Errorf("outage latency %.0f ≤ healthy %.0f", broken.MeanLatency(), healthy.MeanLatency())
	}
}

func TestQueueOverflowDropsPackets(t *testing.T) {
	// DPI at an offered load far beyond service capacity, with a tiny queue
	// cap: the hub must shed load instead of queueing unboundedly.
	hot := func(p *workload.Profile) { p.RatePPS = 3_000_000; p.PayloadBytes = 1000 }
	res := simulateFaults(t, nf.DPI(), &Faults{QueueCap: 2}, nil, hot)
	if res.Faults.Dropped == 0 {
		t.Fatalf("no drops under overload with queuecap=2: %+v", res.Faults)
	}
	if len(res.Packets)+res.Faults.Dropped != 1500 {
		t.Errorf("packets %d + dropped %d != offered 1500", len(res.Packets), res.Faults.Dropped)
	}
}

func TestCorruptionEveryPacket(t *testing.T) {
	res := simulateFaults(t, nf.Firewall(65536), &Faults{Corrupt: 1.0, Seed: 3}, nil, nil)
	if res.Faults.Corrupted != 1500 {
		t.Fatalf("Corrupted = %d, want all 1500", res.Faults.Corrupted)
	}
}

func TestMemFaultRetriesCounted(t *testing.T) {
	clean := simulateFaults(t, nf.Firewall(65536), nil, nil, nil)
	faulty := simulateFaults(t, nf.Firewall(65536), &Faults{MemFault: map[string]float64{"emem": 1.0}}, nil, nil)
	if faulty.Faults.MemFaults["emem"] == 0 {
		t.Fatalf("no emem faults recorded: %+v", faulty.Faults)
	}
	if faulty.MeanLatency() <= clean.MeanLatency() {
		t.Errorf("memfault latency %.0f ≤ clean %.0f; retries should cost cycles",
			faulty.MeanLatency(), clean.MeanLatency())
	}
}

func TestFaultDeterminism(t *testing.T) {
	f := func() *Faults {
		return &Faults{
			Outage:   map[string]bool{"checksum": true},
			QueueCap: 4, Corrupt: 0.1,
			MemFault: map[string]float64{"emem": 0.01},
			Seed:     21,
		}
	}
	hot := func(p *workload.Profile) { p.RatePPS = 2_000_000; p.PayloadBytes = 800 }
	a := simulateFaults(t, nf.DPI(), f(), nil, hot)
	b := simulateFaults(t, nf.DPI(), f(), nil, hot)
	if a.MeanLatency() != b.MeanLatency() {
		t.Errorf("mean latency differs across identical runs: %v vs %v", a.MeanLatency(), b.MeanLatency())
	}
	if a.Faults.String() != b.Faults.String() {
		t.Errorf("fault reports differ:\n  %s\n  %s", a.Faults.String(), b.Faults.String())
	}
	if len(a.Packets) != len(b.Packets) {
		t.Errorf("packet counts differ: %d vs %d", len(a.Packets), len(b.Packets))
	}
}

func TestFaultReportString(t *testing.T) {
	r := FaultReport{Dropped: 2, Corrupted: 3, FaultedPackets: 4,
		AccelFallbacks: map[string]int{"checksum": 5},
		MemFaults:      map[string]int{"emem": 6},
	}
	s := r.String()
	for _, frag := range []string{"dropped=2", "corrupted=3", "fallback[checksum]=5", "memfault[emem]=6"} {
		if !strings.Contains(s, frag) {
			t.Errorf("report %q missing %q", s, frag)
		}
	}
	var zero FaultReport
	if zero.Any() {
		t.Error("zero FaultReport reports Any() = true")
	}
}
