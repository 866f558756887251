package nf

import (
	"testing"

	"clara/internal/cir"
)

func TestAllCompile(t *testing.T) {
	for name, spec := range All() {
		p, err := spec.Compile()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := cir.Verify(p); err != nil {
			t.Errorf("%s: verify: %v", name, err)
		}
		if _, err := cir.BuildGraph(p); err != nil {
			t.Errorf("%s: graph: %v", name, err)
		}
	}
}

// stateByName returns p's state object called name, failing t if there is
// none.
func stateByName(t *testing.T, p *cir.Program, name string) cir.StateObj {
	t.Helper()
	for _, s := range p.State {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("%s declares no state %q", p.Name, name)
	return cir.StateObj{}
}

func TestLPMSpec(t *testing.T) {
	s := LPM(25000)
	p := s.MustCompile()
	st := stateByName(t, p, "routes")
	if st.Kind != cir.StateLPM || st.Capacity != 25000 {
		t.Errorf("routes = %+v", st)
	}
	if s.PreloadEntries["routes"] != 25000 {
		t.Errorf("preload = %v", s.PreloadEntries)
	}
	g, err := cir.BuildGraph(p)
	if err != nil {
		t.Fatal(err)
	}
	var table bool
	for _, n := range g.Nodes {
		if n.Kind == cir.NodeTableOp {
			table = true
		}
	}
	if !table {
		t.Error("LPM graph lacks a table node")
	}
}

func TestNATVariantsDiffer(t *testing.T) {
	inc := NAT(false).MustCompile()
	full := NAT(true).MustCompile()
	countVC := func(p *cir.Program, name cir.VCall) int {
		n := 0
		for _, b := range p.Blocks {
			for _, in := range b.Instrs {
				if in.Op == cir.OpVCall && in.Callee == name {
					n++
				}
			}
		}
		return n
	}
	if countVC(full, cir.VCChecksum) == 0 {
		t.Error("full-checksum NAT lacks checksum_pkt")
	}
	if countVC(inc, cir.VCChecksum) != 0 {
		t.Error("incremental NAT should not recompute full checksums")
	}
	if countVC(inc, cir.VCCksumUpdate) < 2 {
		t.Error("incremental NAT should patch checksum twice")
	}
}

func TestDPIHasPayloadScaledNode(t *testing.T) {
	p := DPI().MustCompile()
	g, err := cir.BuildGraph(p)
	if err != nil {
		t.Fatal(err)
	}
	var scaled bool
	for _, n := range g.Nodes {
		if n.PayloadScaled {
			scaled = true
		}
	}
	if !scaled {
		t.Error("DPI graph has no payload-scaled node")
	}
	if len(p.Patterns["sigs"]) < 4 {
		t.Errorf("patterns = %v", p.Patterns["sigs"])
	}
}

func TestVNFChainTouchesAllStates(t *testing.T) {
	p := VNFChain().MustCompile()
	if len(p.State) != 3 {
		t.Fatalf("states = %d, want 3 (sigs, meters, stats)", len(p.State))
	}
	g, err := cir.BuildGraph(p)
	if err != nil {
		t.Fatal(err)
	}
	states := map[string]bool{}
	for _, n := range g.Nodes {
		for _, s := range n.States {
			states[s] = true
		}
	}
	for _, want := range []string{"sigs", "meters", "stats"} {
		if !states[want] {
			t.Errorf("no dataflow node references state %s", want)
		}
	}
}

func TestSyncookieUsesCrypto(t *testing.T) {
	p := Syncookie().MustCompile()
	g, err := cir.BuildGraph(p)
	if err != nil {
		t.Fatal(err)
	}
	var crypto bool
	for _, n := range g.Nodes {
		if n.Kind == cir.NodeCrypto || n.Accel == "crypto" {
			crypto = true
		}
	}
	if !crypto {
		t.Error("syncookie graph has no crypto node")
	}
}

func TestFirewallCapacityParameter(t *testing.T) {
	p := Firewall(10000).MustCompile()
	st := stateByName(t, p, "conns")
	if st.Capacity != 10000 {
		t.Errorf("capacity = %d", st.Capacity)
	}
	if st.Bytes() != 10000*(13+8) {
		t.Errorf("bytes = %d", st.Bytes())
	}
}
