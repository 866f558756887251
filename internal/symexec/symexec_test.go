package symexec

import (
	"context"
	"math"
	"testing"

	"clara/internal/cir"
	"clara/internal/mapper"
	"clara/internal/nf"
	"clara/internal/workload"
)

func classesFor(t *testing.T, spec nf.Spec) []Class {
	t.Helper()
	cls, err := EnumerateContext(context.Background(), spec.MustCompile())
	if err != nil {
		t.Fatal(err)
	}
	return cls
}

func TestFirewallClasses(t *testing.T) {
	cls := classesFor(t, nf.Firewall(65536))
	// Expected distinct behaviours: established pass (seen), TCP SYN
	// install, non-SYN new drop, and the UDP/ICMP variants.
	if len(cls) < 3 {
		t.Fatalf("classes = %d, want ≥3:\n%v", len(cls), names(cls))
	}
	var sawSeenPass, sawSynPass, sawNewDrop bool
	for i := range cls {
		c := &cls[i]
		switch {
		case c.Attrs.FlowSeen && c.Verdict == cir.VerdictPass:
			sawSeenPass = true
		case !c.Attrs.FlowSeen && c.Attrs.SYN && c.Verdict == cir.VerdictPass:
			sawSynPass = true
		case !c.Attrs.FlowSeen && !c.Attrs.SYN && c.Verdict == cir.VerdictDrop:
			sawNewDrop = true
		}
	}
	if !sawSeenPass || !sawSynPass || !sawNewDrop {
		t.Errorf("missing behaviours (seenPass=%v synPass=%v newDrop=%v):\n%v",
			sawSeenPass, sawSynPass, sawNewDrop, names(cls))
	}
}

func names(cls []Class) []string {
	out := make([]string, len(cls))
	for i := range cls {
		out[i] = cls[i].Name()
	}
	return out
}

func TestDPIClasses(t *testing.T) {
	cls := classesFor(t, nf.DPI())
	var match, clean bool
	for i := range cls {
		if cls[i].Attrs.DPIMatch && cls[i].Verdict == cir.VerdictDrop {
			match = true
		}
		if !cls[i].Attrs.DPIMatch && cls[i].Verdict == cir.VerdictPass {
			clean = true
		}
	}
	if !match || !clean {
		t.Errorf("DPI behaviours incomplete: %v", names(cls))
	}
}

func TestHeavyHitterClasses(t *testing.T) {
	cls := classesFor(t, nf.HeavyHitter(1000))
	var heavy, light bool
	for i := range cls {
		if cls[i].Attrs.Heavy && cls[i].Verdict == cir.VerdictDrop {
			heavy = true
		}
		if !cls[i].Attrs.Heavy && cls[i].Verdict == cir.VerdictPass {
			light = true
		}
	}
	if !heavy || !light {
		t.Errorf("HH behaviours incomplete: %v", names(cls))
	}
}

func TestAllNFsEnumerate(t *testing.T) {
	for name, spec := range nf.All() {
		cls, err := EnumerateContext(context.Background(), spec.MustCompile())
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(cls) == 0 {
			t.Errorf("%s: no classes", name)
		}
		for i := range cls {
			if len(cls[i].BlockTrace) == 0 {
				t.Errorf("%s class %s: empty trace", name, cls[i].Name())
			}
		}
	}
}

func TestWeightsProbSumsToOne(t *testing.T) {
	w := WeightsFor(mapper.FromProfile(workload.DefaultProfile()))
	// Summing Prob over the full lattice must give 1 (icmp weight 0).
	total := 0.0
	for _, proto := range []string{"tcp", "udp", "icmp"} {
		for _, syn := range []bool{false, true} {
			if syn && proto != "tcp" {
				continue
			}
			for _, seen := range []bool{false, true} {
				for _, dpi := range []bool{false, true} {
					for _, heavy := range []bool{false, true} {
						total += w.Prob(Attrs{Proto: proto, SYN: syn, FlowSeen: seen, DPIMatch: dpi, Heavy: heavy})
					}
				}
			}
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("lattice probability mass = %v, want 1", total)
	}
}

func TestNormalize(t *testing.T) {
	cls := classesFor(t, nf.Firewall(65536))
	w := WeightsFor(mapper.FromProfile(workload.DefaultProfile()))
	probs := Normalize(cls, w)
	total := 0.0
	for _, p := range probs {
		total += p
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("normalized probabilities sum to %v", total)
	}
}

func TestAnnotateGraphSkewsBranches(t *testing.T) {
	prog := nf.Firewall(65536).MustCompile()
	g, err := cir.BuildGraph(prog)
	if err != nil {
		t.Fatal(err)
	}
	cls, err := EnumerateContext(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	wl := mapper.FromProfile(workload.DefaultProfile())
	wl.FlowReuse = 0.95 // nearly every packet hits established state
	wl.TCPFraction = 1.0
	AnnotateGraph(g, cls, WeightsFor(wl))
	// Outgoing probabilities from each node must sum to ≈1 (or 0 for
	// unvisited nodes under this workload).
	for i := range g.Nodes {
		sum := 0.0
		n := 0
		for _, e := range g.Edges {
			if e.From == i {
				sum += e.Prob
				n++
			}
		}
		if n > 0 && sum > 1.0001 {
			t.Errorf("node %d outgoing prob = %v > 1", i, sum)
		}
	}
	// The expected visit count of the table node should be near 1 (every
	// packet does a lookup), and overall visits must be finite.
	visits := g.ExpectedVisits()
	for i, v := range visits {
		if math.IsNaN(v) || v < 0 {
			t.Errorf("node %d visits = %v", i, v)
		}
	}
}

func TestEnumerateDeterministic(t *testing.T) {
	a := classesFor(t, nf.VNFChain())
	b := classesFor(t, nf.VNFChain())
	if len(a) != len(b) {
		t.Fatal("class counts differ")
	}
	for i := range a {
		if a[i].Name() != b[i].Name() || a[i].Verdict != b[i].Verdict {
			t.Fatalf("class %d differs: %s vs %s", i, a[i].Name(), b[i].Name())
		}
	}
}

// TestEnumerateRejectsUncompilableProgram is the regression test for a panic
// on malformed input: a program reading a register outside its register
// file must come back as the compile error, not an index-out-of-range panic
// mid-enumeration.
func TestEnumerateRejectsUncompilableProgram(t *testing.T) {
	prog := &cir.Program{Name: "bad", NumRegs: 1, Blocks: []cir.Block{{
		Instrs: []cir.Instr{{Op: cir.OpAdd, Dst: 0, Args: []cir.Reg{0, 5}}},
		Term:   cir.Terminator{Kind: cir.TermReturn, Ret: 0},
	}}}
	_, err := EnumerateContext(context.Background(), prog)
	want := `symexec: cir: compile: block 0 instr 0 (r0 = add r0 r5): register r5 out of range (NumRegs=1)`
	if err == nil || err.Error() != want {
		t.Fatalf("EnumerateContext(malformed) error = %v, want %q", err, want)
	}
}
