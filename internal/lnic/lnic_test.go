package lnic

import (
	"strings"
	"testing"

	"clara/internal/cir"
)

func TestBuiltinProfilesValidate(t *testing.T) {
	for name, mk := range Profiles() {
		l := mk()
		if err := l.Validate(); err != nil {
			t.Errorf("profile %s: %v", name, err)
		}
	}
}

func TestProfileNamesSorted(t *testing.T) {
	names := ProfileNames()
	if len(names) != 3 {
		t.Fatalf("profiles = %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("names not sorted: %v", names)
		}
	}
}

func TestNetronomeDatabookParameters(t *testing.T) {
	l := Netronome()
	cases := []struct {
		mem    string
		bytes  int64
		cycles float64
	}{
		{"local", 4 << 10, 2},
		{"ctm", 256 << 10, 50},
		{"imem", 4 << 20, 250},
		{"emem", 8 << 30, 500},
	}
	for _, c := range cases {
		id, ok := l.MemByName(c.mem)
		if !ok {
			t.Fatalf("mem %s missing", c.mem)
		}
		m := l.Mems[id]
		if m.Bytes != c.bytes {
			t.Errorf("%s bytes = %d, want %d", c.mem, m.Bytes, c.bytes)
		}
		if m.LoadCycles != c.cycles {
			t.Errorf("%s load cycles = %v, want %v", c.mem, m.LoadCycles, c.cycles)
		}
	}
	emem, _ := l.MemByName("emem")
	if l.Mems[emem].CacheBytes != 3<<20 {
		t.Errorf("EMEM cache = %d, want 3 MB", l.Mems[emem].CacheBytes)
	}
	if l.PktMemResident != 1024 {
		t.Errorf("packet residency threshold = %d, want 1024", l.PktMemResident)
	}
	if l.ParseCycles != 150 {
		t.Errorf("parse cycles = %v, want 150", l.ParseCycles)
	}
	if l.MetadataCycles < 2 || l.MetadataCycles > 5 {
		t.Errorf("metadata cycles = %v, want 2..5", l.MetadataCycles)
	}
}

func TestNetronomeChecksumAccel300CyclesAt1000B(t *testing.T) {
	l := Netronome()
	ids := l.Accelerators("checksum")
	if len(ids) != 1 {
		t.Fatalf("checksum accels = %d", len(ids))
	}
	u := l.Units[ids[0]]
	got := u.FixedCycles + 1000*u.PerByteCycles
	if got != 300 {
		t.Errorf("checksum(1000B) = %v cycles, want 300 (paper §2.1)", got)
	}
}

func TestNetronomeNPUGeometry(t *testing.T) {
	l := Netronome()
	npus := l.UnitsOfKind(UnitNPU)
	if len(npus) != 8 {
		t.Fatalf("NPUs = %d, want 8", len(npus))
	}
	for _, id := range npus {
		u := l.Units[id]
		if u.Threads != 8 {
			t.Errorf("%s threads = %d, want 8 (§3.2)", u.Name, u.Threads)
		}
		if u.HasFPU {
			t.Errorf("%s should lack an FPU (§3.4)", u.Name)
		}
		if u.FloatEmulation <= 1 {
			t.Errorf("%s float emulation = %v, want >1", u.Name, u.FloatEmulation)
		}
	}
	if l.TotalThreads() != 64 {
		t.Errorf("total threads = %d, want 64", l.TotalThreads())
	}
}

// unitByName returns the ID of l's unit called name, failing t if there is
// none.
func unitByName(t *testing.T, l *LNIC, name string) int {
	t.Helper()
	for _, u := range l.Units {
		if u.Name == name {
			return u.ID
		}
	}
	t.Fatalf("%s has no unit %q", l.Name, name)
	return 0
}

func TestAccessCycles(t *testing.T) {
	l := Netronome()
	npu := unitByName(t, l, "npu0")
	ctm, _ := l.MemByName("ctm")
	c, ok := l.AccessCycles(npu, ctm, false)
	if !ok || c != 50 {
		t.Errorf("npu→ctm = %v,%v, want 50,true", c, ok)
	}
	local, _ := l.MemByName("local")
	c, ok = l.AccessCycles(npu, local, false)
	if !ok || c != 2 {
		t.Errorf("npu→local = %v,%v, want 2,true", c, ok)
	}
	// The parser cannot reach IMEM.
	parser := unitByName(t, l, "ingress-parser")
	imem, _ := l.MemByName("imem")
	if _, ok := l.AccessCycles(parser, imem, false); ok {
		t.Error("parser should not reach imem")
	}
}

func TestCachedAccessCycles(t *testing.T) {
	l := Netronome()
	npu := unitByName(t, l, "npu0")
	emem, _ := l.MemByName("emem")
	// Small working set: all hits.
	c, ok := l.CachedAccessCycles(npu, emem, false, 1<<20)
	if !ok || c != 150 {
		t.Errorf("cached small ws = %v, want 150", c)
	}
	// Working set 2× the cache: half hits.
	c, _ = l.CachedAccessCycles(npu, emem, false, 6<<20)
	want := 0.5*150 + 0.5*500
	if c != want {
		t.Errorf("cached 2x ws = %v, want %v", c, want)
	}
	// Uncached region ignores ws.
	ctm, _ := l.MemByName("ctm")
	c, _ = l.CachedAccessCycles(npu, ctm, false, 1<<30)
	if c != 50 {
		t.Errorf("uncached region = %v, want 50", c)
	}
}

func TestPipelineStagesMonotone(t *testing.T) {
	for name, mk := range Profiles() {
		l := mk()
		for _, e := range l.Pipes {
			if l.Units[e.From].Stage > l.Units[e.To].Stage {
				t.Errorf("%s: pipe %s→%s decreases stage", name, l.Units[e.From].Name, l.Units[e.To].Name)
			}
		}
	}
}

func TestPipelineASICHasNoGeneralCores(t *testing.T) {
	l := PipelineASIC()
	if n := len(l.UnitsOfKind(UnitNPU)); n != 0 {
		t.Errorf("ASIC has %d NPU cores, want 0", n)
	}
	if n := len(l.UnitsOfKind(UnitMAU)); n != 4 {
		t.Errorf("ASIC has %d MAUs, want 4", n)
	}
}

func TestARMSoCRunToCompletion(t *testing.T) {
	l := ARMSoC()
	for _, u := range l.Units {
		if u.Stage != 0 {
			t.Errorf("%s at stage %d; SoC profile is run-to-completion", u.Name, u.Stage)
		}
	}
	cores := l.UnitsOfKind(UnitNPU)
	for _, id := range cores {
		if !l.Units[id].HasFPU {
			t.Errorf("%s should have an FPU", l.Units[id].Name)
		}
	}
	if len(l.Accelerators("flowcache")) != 0 {
		t.Error("SoC profile should not expose a flow cache")
	}
}

func TestSlice(t *testing.T) {
	l := Netronome()
	h := l.Slice(0.5)
	if err := h.Validate(); err != nil {
		t.Fatalf("sliced LNIC invalid: %v", err)
	}
	if n := len(h.UnitsOfKind(UnitNPU)); n != 4 {
		t.Errorf("half slice NPUs = %d, want 4", n)
	}
	emem, _ := h.MemByName("emem")
	if h.Mems[emem].CacheBytes != (3<<20)/2 {
		t.Errorf("half slice cache = %d", h.Mems[emem].CacheBytes)
	}
	if !strings.Contains(h.Name, "50%") {
		t.Errorf("slice name = %q", h.Name)
	}
	// Original untouched.
	if n := len(l.UnitsOfKind(UnitNPU)); n != 8 {
		t.Errorf("original mutated: NPUs = %d", n)
	}
	// Degenerate fraction falls back to identity.
	if n := len(l.Slice(-1).UnitsOfKind(UnitNPU)); n != 8 {
		t.Errorf("Slice(-1) NPUs = %d, want 8", n)
	}
	// Tiny fraction keeps at least one core.
	if n := len(l.Slice(0.01).UnitsOfKind(UnitNPU)); n != 1 {
		t.Errorf("Slice(0.01) NPUs = %d, want 1", n)
	}
}

func TestValidateCatchesBadGraph(t *testing.T) {
	l := Netronome()
	l.CompMem = append(l.CompMem, CompMemEdge{Unit: 99, Mem: 0})
	if err := l.Validate(); err == nil {
		t.Error("want error for out-of-range edge")
	}

	l = Netronome()
	l.Units[0].Threads = 0
	if err := l.Validate(); err == nil {
		t.Error("want error for zero threads")
	}

	l = Netronome()
	l.Hier = append(l.Hier, HierEdge{From: 3, To: 0}) // emem → local ascends
	if err := l.Validate(); err == nil {
		t.Error("want error for non-descending hierarchy edge")
	}

	l = Netronome()
	l.ClockGHz = 0
	if err := l.Validate(); err == nil {
		t.Error("want error for zero clock")
	}
}

func TestCyclesToNanos(t *testing.T) {
	l := Netronome() // 0.8 GHz
	if got := l.CyclesToNanos(800); got != 1000 {
		t.Errorf("800 cycles @0.8GHz = %v ns, want 1000", got)
	}
}

func TestClassPricing(t *testing.T) {
	l := Netronome()
	npu := l.Units[l.UnitsOfKind(UnitNPU)[0]]
	if npu.ClassCycles[cir.ClassALU] != 1 {
		t.Errorf("ALU = %v", npu.ClassCycles[cir.ClassALU])
	}
	if npu.ClassCycles[cir.ClassDiv] <= npu.ClassCycles[cir.ClassMul] {
		t.Error("div should cost more than mul")
	}
}
