package microbench

import (
	"context"
	"math"
	"testing"

	"clara/internal/lnic"
)

// Get returns the named parameter.
func (r *Report) Get(name string) (Param, bool) {
	for _, p := range r.Params {
		if p.Name == name {
			return p, true
		}
	}
	return Param{}, false
}

func TestMicrobenchRecoversDatabook(t *testing.T) {
	rep, err := RunContext(context.Background(), lnic.Netronome(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// E6: recovered parameters must be close to the databook values the
	// paper publishes (§3.2). Probe programs carry some fixed overhead, so
	// allow generous but bounded slack.
	within := func(name string, tol float64) {
		t.Helper()
		p, ok := rep.Get(name)
		if !ok {
			t.Fatalf("parameter %s missing:\n%s", name, rep)
		}
		if p.Databook == 0 {
			return
		}
		err := math.Abs(p.Value-p.Databook) / p.Databook
		if err > tol {
			t.Errorf("%s: measured %.2f vs databook %.2f (%.0f%% off)", name, p.Value, p.Databook, err*100)
		}
	}
	within("alu", 0.25)
	within("mul", 0.25)
	within("div", 0.25)
	within("metadata-mod", 0.35)
	within("parse-header", 0.25)
	within("checksum-accel-1000B", 0.30)
	within("flowcache-hit", 0.50)
	within("mem-ctm", 0.25)
	within("mem-imem", 0.25)
	within("mem-local", 1.0) // tiny absolute value; loose relative bound
}

func TestChecksumSoftwareVsAccelGap(t *testing.T) {
	// E7: ~300 cycles at the accelerator vs ~1700 extra on the NPU for a
	// 1000-byte packet (§2.1).
	rep, err := RunContext(context.Background(), lnic.Netronome(), 0)
	if err != nil {
		t.Fatal(err)
	}
	hw, _ := rep.Get("checksum-accel-1000B")
	sw, _ := rep.Get("checksum-sw-1000B")
	if hw.Value <= 0 || sw.Value <= 0 {
		t.Fatalf("checksum params: hw=%v sw=%v", hw.Value, sw.Value)
	}
	if hw.Value < 200 || hw.Value > 450 {
		t.Errorf("accel checksum = %.0f cycles, want ≈300", hw.Value)
	}
	extra := sw.Value - hw.Value
	if extra < 1000 || extra > 2500 {
		t.Errorf("software penalty = %.0f extra cycles, want ≈1700", extra)
	}
}

func TestPacketCurveKneeAtResidency(t *testing.T) {
	nic := lnic.Netronome()
	sizes := []int{128, 256, 512, 768, 1024, 1536, 2048, 3072, 4096}
	points, err := PacketCurveContext(context.Background(), nic, sizes)
	if err != nil {
		t.Fatal(err)
	}
	knee, found := Knee(points)
	if !found {
		for _, p := range points {
			t.Logf("%6dB  %.2f cyc/B", p.SizeBytes, p.Cycles)
		}
		t.Fatal("no knee found in packet latency curve")
	}
	// The residency threshold is 1024B; the knee must sit near it.
	if knee < 512 || knee > 2048 {
		t.Errorf("knee at %dB, want near %d", knee, nic.PktMemResident)
	}
}

func TestKneeEdgeCases(t *testing.T) {
	if _, ok := Knee(nil); ok {
		t.Error("knee on empty data")
	}
	flat := []LatencyPoint{{64, 10}, {128, 10}, {256, 10.1}}
	if _, ok := Knee(flat); ok {
		t.Error("knee on flat curve")
	}
	step := []LatencyPoint{{64, 10}, {128, 10}, {256, 10}, {512, 100}, {1024, 100}}
	knee, ok := Knee(step)
	if !ok || knee != 256 {
		t.Errorf("knee = %d,%v, want 256,true", knee, ok)
	}
}

func TestReportString(t *testing.T) {
	rep, err := RunContext(context.Background(), lnic.ARMSoC(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if s := rep.String(); len(s) == 0 {
		t.Error("empty report")
	}
	if _, ok := rep.Get("nosuch"); ok {
		t.Error("Get returned a missing parameter")
	}
}

func TestRunOnAllProfiles(t *testing.T) {
	for name, mk := range lnic.Profiles() {
		if _, err := RunContext(context.Background(), mk(), 0); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
