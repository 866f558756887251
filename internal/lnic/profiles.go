package lnic

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"clara/internal/cir"
)

// Netronome builds the LNIC for a Netronome Agilio CX 40 Gbps SmartNIC, the
// backend the paper validates against. All parameters come from §3.2 of the
// paper: per-NPU local memory of 4 kB at 1–3 cycles, 256 kB CTM at 50
// cycles, 4 MB IMEM at up to 250 cycles, 8 GB EMEM at up to 500 cycles with
// a 3 MB cache; packets under 1 kB reside in the CTM with tails spilling to
// EMEM; 8 threads per NPU core; metadata modifications of 2–5 cycles; header
// parsing of ~150 cycles on a core; checksum of ~300 cycles for a 1000-byte
// packet at the ingress accelerator versus ~1700 extra cycles on an NPU.
func Netronome() *LNIC {
	l := &LNIC{
		Name:     "netronome-agilio-cx40",
		ClockGHz: 0.8,
	}
	local := l.addMem(MemRegion{Name: "local", Bytes: 4 << 10, Level: 0, LoadCycles: 2, StoreCycles: 2, LineBytes: 8, NJPerAccess: 0.05})
	ctm := l.addMem(MemRegion{Name: "ctm", Bytes: 256 << 10, Level: 1, LoadCycles: 50, StoreCycles: 50, LineBytes: 64, NJPerAccess: 0.5})
	imem := l.addMem(MemRegion{Name: "imem", Bytes: 4 << 20, Level: 2, LoadCycles: 250, StoreCycles: 250, LineBytes: 64, NJPerAccess: 1.5})
	emem := l.addMem(MemRegion{Name: "emem", Bytes: 8 << 30, Level: 3, LoadCycles: 500, StoreCycles: 500,
		CacheBytes: 3 << 20, CacheHitCycles: 150, LineBytes: 64, NJPerAccess: 10})

	parser := l.addUnit(ComputeUnit{Name: "ingress-parser", Kind: UnitParser, Stage: 0, Threads: 4,
		FixedCycles: 40, LocalMem: -1, NJPerCycle: 0.1})
	// Accelerators are coprocessors the NPUs invoke mid-execution, so they
	// share the NPU pipeline stage rather than forming one of their own.
	cksum := l.addUnit(ComputeUnit{Name: "cksum-accel", Kind: UnitAccel, AccelClass: "checksum", Stage: 2,
		Threads: 1, FixedCycles: 50, PerByteCycles: 0.25, QueueCap: 64, LocalMem: -1, NJPerCycle: 0.2})
	crypto := l.addUnit(ComputeUnit{Name: "crypto-accel", Kind: UnitAccel, AccelClass: "crypto", Stage: 2,
		Threads: 1, FixedCycles: 120, PerByteCycles: 1.0, QueueCap: 64, LocalMem: -1, NJPerCycle: 0.3})
	fcache := l.addUnit(ComputeUnit{Name: "flow-cache", Kind: UnitAccel, AccelClass: "flowcache", Stage: 2,
		Threads: 1, FixedCycles: 40, QueueCap: 128, TableEntries: 65536, LocalMem: -1, NJPerCycle: 0.2})

	npuClasses := map[cir.Class]float64{
		cir.ClassNop: 0, cir.ClassALU: 1, cir.ClassMul: 3, cir.ClassDiv: 20,
		cir.ClassFloat: 1, // priced via FloatEmulation × ALU
		cir.ClassMem:   2, // local scratch
	}
	const npuCores = 8
	var npus []int
	for i := 0; i < npuCores; i++ {
		id := l.addUnit(ComputeUnit{Name: fmt.Sprintf("npu%d", i), Kind: UnitNPU, Stage: 2, Threads: 8,
			ClassCycles: npuClasses, HasFPU: false, FloatEmulation: 30, LocalMem: local, NJPerCycle: 0.5})
		npus = append(npus, id)
	}
	egress := l.addUnit(ComputeUnit{Name: "egress", Kind: UnitEgress, Stage: 3, Threads: 4,
		FixedCycles: 30, LocalMem: -1, NJPerCycle: 0.1})

	// Memory reachability: parser and accelerators read packets in the CTM;
	// NPUs reach every level; egress drains from CTM/EMEM.
	l.connect(parser, ctm, 0)
	l.connect(cksum, ctm, 0)
	l.connect(cksum, emem, 0) // spilled packet tails
	l.connect(crypto, ctm, 0)
	l.connect(crypto, emem, 0)
	l.connect(fcache, ctm, 0)
	for _, n := range npus {
		l.connect(n, ctm, 0)
		l.connect(n, imem, 0)
		l.connect(n, emem, 0)
	}
	l.connect(egress, ctm, 0)
	l.connect(egress, emem, 0)

	l.Hier = []HierEdge{{From: local, To: ctm}, {From: ctm, To: imem}, {From: imem, To: emem}}
	l.Pipes = pipeline(append([]int{parser, cksum, crypto, fcache}, append(npus, egress)...), l)

	l.Hubs = []Hub{
		{ID: 0, Name: "ingress-tm", ServiceCycles: 25, QueueCap: 512, Discipline: "fifo"},
		{ID: 1, Name: "island-fabric", ServiceCycles: 20, QueueCap: 256, Discipline: "fifo"},
	}

	l.PktMem = ctm
	l.PktSpillMem = emem
	l.PktMemResident = 1024
	l.ParseCycles = 150
	l.MetadataCycles = 3
	l.HashCycles = 20
	return l
}

// ARMSoC builds a hypothetical SoC-style SmartNIC (in the spirit of
// Mellanox BlueField or Marvell LiquidIO): fewer, faster general cores with
// FPUs and a conventional cache hierarchy, a crypto engine, an inline
// checksum engine, but no flow-cache accelerator. Run-to-completion only:
// every unit sits in one stage, so the pipeline constraint is trivial (§6
// discusses exactly this architectural contrast).
func ARMSoC() *LNIC {
	l := &LNIC{
		Name:     "armsoc-8core",
		ClockGHz: 2.0,
	}
	l1 := l.addMem(MemRegion{Name: "l1", Bytes: 64 << 10, Level: 0, LoadCycles: 4, StoreCycles: 4, LineBytes: 64, NJPerAccess: 0.2})
	l2 := l.addMem(MemRegion{Name: "l2", Bytes: 1 << 20, Level: 1, LoadCycles: 12, StoreCycles: 12, LineBytes: 64, NJPerAccess: 0.6})
	dram := l.addMem(MemRegion{Name: "dram", Bytes: 16 << 30, Level: 2, LoadCycles: 200, StoreCycles: 200,
		CacheBytes: 6 << 20, CacheHitCycles: 40, LineBytes: 64, NJPerAccess: 15})

	parser := l.addUnit(ComputeUnit{Name: "ingress-parser", Kind: UnitParser, Stage: 0, Threads: 2,
		FixedCycles: 60, LocalMem: -1, NJPerCycle: 0.2})
	cksum := l.addUnit(ComputeUnit{Name: "cksum-engine", Kind: UnitAccel, AccelClass: "checksum", Stage: 0,
		Threads: 1, FixedCycles: 80, PerByteCycles: 0.5, QueueCap: 64, LocalMem: -1, NJPerCycle: 0.3})
	crypto := l.addUnit(ComputeUnit{Name: "crypto-engine", Kind: UnitAccel, AccelClass: "crypto", Stage: 0,
		Threads: 1, FixedCycles: 150, PerByteCycles: 0.6, QueueCap: 64, LocalMem: -1, NJPerCycle: 0.4})

	armClasses := map[cir.Class]float64{
		cir.ClassNop: 0, cir.ClassALU: 1, cir.ClassMul: 3, cir.ClassDiv: 12,
		cir.ClassFloat: 2, cir.ClassMem: 4,
	}
	var cores []int
	for i := 0; i < 8; i++ {
		id := l.addUnit(ComputeUnit{Name: fmt.Sprintf("arm%d", i), Kind: UnitNPU, Stage: 0, Threads: 2,
			ClassCycles: armClasses, HasFPU: true, FloatEmulation: 1, LocalMem: l1, NJPerCycle: 1.5})
		cores = append(cores, id)
	}
	egress := l.addUnit(ComputeUnit{Name: "egress", Kind: UnitEgress, Stage: 0, Threads: 2,
		FixedCycles: 40, LocalMem: -1, NJPerCycle: 0.2})

	l.connect(parser, l2, 0)
	l.connect(cksum, l2, 0)
	l.connect(cksum, dram, 0)
	l.connect(crypto, l2, 0)
	l.connect(crypto, dram, 0)
	for _, c := range cores {
		l.connect(c, l2, 0)
		l.connect(c, dram, 0)
	}
	l.connect(egress, l2, 0)
	l.connect(egress, dram, 0)

	l.Hier = []HierEdge{{From: l1, To: l2}, {From: l2, To: dram}}
	l.Hubs = []Hub{{ID: 0, Name: "noc", ServiceCycles: 15, QueueCap: 512, Discipline: "fifo"}}

	l.PktMem = l2
	l.PktSpillMem = dram
	l.PktMemResident = 2048
	l.ParseCycles = 100
	l.MetadataCycles = 2
	l.HashCycles = 10
	return l
}

// PipelineASIC builds a hypothetical programmable-ASIC SmartNIC: a parser
// followed by four match-action stages with fast stage-local SRAM, a
// checksum engine and an egress. There are no general-purpose cores, so
// payload loops (DPI) and crypto cannot be mapped at all — the mapper
// reports such NFs infeasible on this backend, which is itself a useful
// performance-clarity answer.
func PipelineASIC() *LNIC {
	l := &LNIC{
		Name:     "pipeline-asic",
		ClockGHz: 1.0,
	}
	sram := l.addMem(MemRegion{Name: "stage-sram", Bytes: 6 << 20, Level: 0, LoadCycles: 10, StoreCycles: 10, LineBytes: 16, NJPerAccess: 0.3})
	dram := l.addMem(MemRegion{Name: "buffer-dram", Bytes: 4 << 30, Level: 1, LoadCycles: 300, StoreCycles: 300, LineBytes: 64, NJPerAccess: 12})

	parser := l.addUnit(ComputeUnit{Name: "parser", Kind: UnitParser, Stage: 0, Threads: 4,
		FixedCycles: 12, LocalMem: -1, NJPerCycle: 0.05})
	mauClasses := map[cir.Class]float64{
		cir.ClassNop: 0, cir.ClassALU: 0.5, cir.ClassMul: 4, cir.ClassDiv: 40,
		cir.ClassFloat: 1, cir.ClassMem: 10,
	}
	var maus []int
	for i := 0; i < 4; i++ {
		id := l.addUnit(ComputeUnit{Name: fmt.Sprintf("mau%d", i), Kind: UnitMAU, Stage: 1 + i, Threads: 4,
			ClassCycles: mauClasses, HasFPU: false, FloatEmulation: 1, FixedCycles: 10, LocalMem: sram, NJPerCycle: 0.15})
		maus = append(maus, id)
	}
	cksum := l.addUnit(ComputeUnit{Name: "cksum-engine", Kind: UnitAccel, AccelClass: "checksum", Stage: 5,
		Threads: 1, FixedCycles: 30, PerByteCycles: 0.2, QueueCap: 128, LocalMem: -1, NJPerCycle: 0.1})
	egress := l.addUnit(ComputeUnit{Name: "egress", Kind: UnitEgress, Stage: 6, Threads: 4,
		FixedCycles: 15, LocalMem: -1, NJPerCycle: 0.05})

	l.connect(parser, sram, 0)
	for _, m := range maus {
		l.connect(m, sram, 0)
		l.connect(m, dram, 0)
	}
	l.connect(cksum, dram, 0)
	l.connect(egress, dram, 0)

	l.Hier = []HierEdge{{From: sram, To: dram}}
	l.Pipes = pipeline(append(append([]int{parser}, maus...), cksum, egress), l)
	l.Hubs = []Hub{{ID: 0, Name: "tm", ServiceCycles: 10, QueueCap: 1024, Discipline: "fifo"}}

	l.PktMem = dram
	l.PktSpillMem = dram
	l.PktMemResident = 2048
	l.ParseCycles = 12
	l.MetadataCycles = 1
	l.HashCycles = 4
	return l
}

// Profiles returns the registry of built-in LNIC profiles keyed by name.
func Profiles() map[string]func() *LNIC {
	return map[string]func() *LNIC{
		"netronome":     Netronome,
		"armsoc":        ARMSoC,
		"pipeline-asic": PipelineASIC,
	}
}

// ProfileNames returns the registry keys in sorted order, in a slice the
// caller owns.
func ProfileNames() []string { return slices.Clone(profileNames()) }

// profileNames is the registry keys in sorted order, read-only.
var profileNames = sync.OnceValue(func() []string {
	m := Profiles()
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
})

// Shared returns one instance of every built-in profile, in ProfileNames
// order, built on first use. Analyses on every goroutine share them, so
// nothing may write to them. Because they never change, what an analysis
// derives from one of them once it may keep and reuse; SharedIndex tells
// them apart by pointer. Every other LNIC, a fresh profile, a Slice or a
// Clone included, is its owner's to change between calls, so nothing
// derived from it is kept.
var Shared = sync.OnceValue(func() []*LNIC {
	names := profileNames()
	profiles := Profiles()
	out := make([]*LNIC, len(names))
	for i, name := range names {
		out[i] = profiles[name]()
	}
	return out
})

// SharedIndex returns l's index in Shared, or -1 when l is not one of the
// shared instances.
func SharedIndex(l *LNIC) int {
	for i, s := range Shared() {
		if s == l {
			return i
		}
	}
	return -1
}

// Slice returns a copy of the LNIC scaled down to a fraction of its general
// cores, cache and queue capacity — the paper's starting point for
// interference analysis between co-resident NFs ("slice the LNIC to model,
// for instance, half of the NIC", §3.5).
func (l *LNIC) Slice(frac float64) *LNIC {
	if frac <= 0 || frac > 1 {
		frac = 1
	}
	s := *l
	s.Name = fmt.Sprintf("%s[%.0f%%]", l.Name, frac*100)
	// Keep ceil(frac × NPUs) general cores; everything else is shared. A
	// true ceil, not the old "+0.999" pseudo-ceil, which under-counted for
	// fractions like 1/1000 of large pools (and over-counted exact
	// products whose float representation lands just below the integer).
	var keepNPU int
	total := len(l.UnitsOfKind(UnitNPU))
	keepNPU = int(math.Ceil(float64(total) * frac))
	if keepNPU < 1 {
		keepNPU = 1
	}
	s.Units = nil
	dropped := map[int]bool{}
	seenNPU := 0
	for _, u := range l.Units {
		if u.Kind == UnitNPU {
			seenNPU++
			if seenNPU > keepNPU {
				dropped[u.ID] = true
				continue
			}
		}
		s.Units = append(s.Units, u)
	}
	// Reindex and rewire edges.
	remap := map[int]int{}
	for i := range s.Units {
		remap[s.Units[i].ID] = i
		s.Units[i].ID = i
	}
	s.CompMem = nil
	for _, e := range l.CompMem {
		if dropped[e.Unit] {
			continue
		}
		s.CompMem = append(s.CompMem, CompMemEdge{Unit: remap[e.Unit], Mem: e.Mem, ExtraCycles: e.ExtraCycles})
	}
	s.Pipes = nil
	for _, e := range l.Pipes {
		if dropped[e.From] || dropped[e.To] {
			continue
		}
		s.Pipes = append(s.Pipes, PipeEdge{From: remap[e.From], To: remap[e.To]})
	}
	// Shared caches and queues shrink proportionally.
	s.Mems = append([]MemRegion(nil), l.Mems...)
	for i := range s.Mems {
		if s.Mems[i].CacheBytes > 0 {
			s.Mems[i].CacheBytes = int64(float64(s.Mems[i].CacheBytes) * frac)
		}
	}
	s.Hubs = append([]Hub(nil), l.Hubs...)
	for i := range s.Hubs {
		s.Hubs[i].QueueCap = int(float64(s.Hubs[i].QueueCap) * frac)
		if s.Hubs[i].QueueCap < 1 {
			s.Hubs[i].QueueCap = 1
		}
	}
	return &s
}

func (l *LNIC) addMem(m MemRegion) int {
	m.ID = len(l.Mems)
	l.Mems = append(l.Mems, m)
	return m.ID
}

func (l *LNIC) addUnit(u ComputeUnit) int {
	u.ID = len(l.Units)
	l.Units = append(l.Units, u)
	return u.ID
}

func (l *LNIC) connect(unit, mem int, extra float64) {
	l.CompMem = append(l.CompMem, CompMemEdge{Unit: unit, Mem: mem, ExtraCycles: extra})
}

// pipeline links units in non-decreasing stage order with pipe edges.
func pipeline(ids []int, l *LNIC) []PipeEdge {
	sorted := append([]int(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool { return l.Units[sorted[i]].Stage < l.Units[sorted[j]].Stage })
	var edges []PipeEdge
	for i := 0; i+1 < len(sorted); i++ {
		edges = append(edges, PipeEdge{From: sorted[i], To: sorted[i+1]})
	}
	return edges
}
