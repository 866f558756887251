// Package lnic implements Clara's logical SmartNIC model (§3.1 of the
// paper): a graph ⟨V,E⟩ whose nodes are typed compute units, memory regions
// and switching hubs, and whose edges are weighted memory accesses (NUMA
// effects), memory-hierarchy links and unidirectional pipeline links. An
// LNIC is parameterized (§3.2) with architectural parameters (sizes, degrees
// of parallelism, queue capacities) and performance parameters (access
// latencies, per-instruction-class cycle counts, accelerator throughput).
package lnic

import (
	"fmt"
	"maps"

	"clara/internal/cir"
)

// UnitKind types a compute unit (§3.1: "compute units are typed").
type UnitKind uint8

// Compute unit kinds.
const (
	UnitNPU    UnitKind = iota // general-purpose network processor core
	UnitParser                 // header processing engine
	UnitMAU                    // match-action unit (pipeline ASIC stage)
	UnitAccel                  // domain-specific accelerator
	UnitEgress                 // egress/DMA engine
)

func (k UnitKind) String() string {
	switch k {
	case UnitNPU:
		return "npu"
	case UnitParser:
		return "parser"
	case UnitMAU:
		return "mau"
	case UnitAccel:
		return "accel"
	case UnitEgress:
		return "egress"
	default:
		return fmt.Sprintf("unit(%d)", uint8(k))
	}
}

// ComputeUnit is a node of the LNIC graph that executes code blocks.
type ComputeUnit struct {
	ID   int
	Name string
	Kind UnitKind
	// Stage orders pipelined execution; mapped dataflow edges must be
	// non-decreasing in stage (§3.4's Π constraint).
	Stage int
	// Threads is the degree of parallelism (e.g. 8 threads per NPU core; an
	// incoming packet is bound to a single thread).
	Threads int
	// AccelClass is non-empty for UnitAccel ("checksum", "crypto",
	// "flowcache") and names the vcall class the unit executes natively.
	AccelClass string
	// ClassCycles prices one instruction of each class on this unit.
	// Units that cannot run general code (pure accelerators) leave it nil.
	ClassCycles map[cir.Class]float64
	// HasFPU reports a hardware floating point unit. Without one, float
	// instructions are emulated in software at FloatEmulation × the ALU cost
	// (§3.4: "some SmartNIC cores do not have FPUs").
	HasFPU         bool
	FloatEmulation float64
	// FixedCycles and PerByteCycles model accelerator service time.
	FixedCycles   float64
	PerByteCycles float64
	// TableEntries is the entry capacity of table-holding units (the flow
	// cache's SRAM table); 0 for units that hold no table.
	TableEntries int
	// QueueCap bounds the unit's input queue (packets); 0 means unbounded.
	QueueCap int
	// Local memory attached to this unit (register files / local scratch).
	LocalMem int // the MemRegion ID, -1 if none
	// NJPerCycle is the unit's active energy per cycle in nanojoules —
	// the coefficient energy prediction (§6's E3-style extension) uses.
	// SmartNIC cores are markedly more efficient than host CPUs.
	NJPerCycle float64
}

// GeneralPurpose reports whether the unit can execute arbitrary code blocks.
func (u *ComputeUnit) GeneralPurpose() bool { return u.Kind == UnitNPU }

// MemRegion is a memory node. Access latency varies by accessing unit via
// CompMemEdge weights; Load/StoreCycles are the base costs.
type MemRegion struct {
	ID    int
	Name  string
	Bytes int64
	// Level in the hierarchy (0 = closest to compute).
	Level       int
	LoadCycles  float64
	StoreCycles float64
	// CacheBytes models a fronting cache (the Netronome EMEM has a 3 MB
	// cache); CacheHitCycles is the hit latency. Zero means no cache.
	CacheBytes     int64
	CacheHitCycles float64
	// LineBytes is the fetch granularity for bulk/streaming access.
	LineBytes int
	// NJPerAccess is the energy of one access in nanojoules.
	NJPerAccess float64
}

// HubServers is the switching parallelism of every hub: fabrics move several
// packets at once, so a hub is a small server pool rather than one FIFO. The
// simulator books that many servers and the predictor divides hub demand by
// it.
const HubServers = 8

// Hub is a switching node: the embedded NIC switch or a traffic manager.
// Edges from and to a hub involve packet queues (§3.1).
type Hub struct {
	ID   int
	Name string
	// ServiceCycles is the per-packet switching cost.
	ServiceCycles float64
	// QueueCap is the queue capacity in packets.
	QueueCap int
	// Discipline is "fifo" (the only one modelled; field kept so profiles
	// can declare intent).
	Discipline string
}

// CompMemEdge weights a compute-unit↔memory edge with extra access cycles
// (NUMA effect: latency depends on where the access is issued).
type CompMemEdge struct {
	Unit, Mem   int
	ExtraCycles float64
}

// HierEdge is a memory-hierarchy edge m↔M (eviction/fetch direction).
type HierEdge struct {
	From, To int // From spills/evicts into To
}

// PipeEdge is a unidirectional compute→compute edge describing staged
// execution for incoming packets.
type PipeEdge struct {
	From, To int
}

// LNIC is a parameterized logical SmartNIC.
type LNIC struct {
	Name     string
	ClockGHz float64
	Units    []ComputeUnit
	Mems     []MemRegion
	Hubs     []Hub
	CompMem  []CompMemEdge
	Hier     []HierEdge
	Pipes    []PipeEdge

	// PktMem and PktSpillMem say where packet bytes land on ingress and
	// where tails spill when a packet exceeds PktMemResident bytes
	// (Netronome: packets < 1 kB reside in CTM entirely, tails spill to
	// EMEM, §3.2).
	PktMem         int
	PktSpillMem    int
	PktMemResident int

	// ParseCycles is the cost of parsing headers on a general core (copying
	// header data into local memory, ~150 cycles on Netronome); parser units
	// do it at their FixedCycles.
	ParseCycles float64
	// MetadataCycles prices header/metadata field reads and writes (2–5
	// cycles on the NPU).
	MetadataCycles float64
	// HashCycles prices one key hash (flow_key/hash vcalls).
	HashCycles float64
}

// Validate checks referential integrity of the graph.
func (l *LNIC) Validate() error {
	if l.Name == "" {
		return fmt.Errorf("lnic: profile has no name")
	}
	if l.ClockGHz <= 0 {
		return fmt.Errorf("lnic %s: non-positive clock", l.Name)
	}
	for i, u := range l.Units {
		if u.ID != i {
			return fmt.Errorf("lnic %s: unit %d has ID %d", l.Name, i, u.ID)
		}
		if u.Kind == UnitAccel && u.AccelClass == "" {
			return fmt.Errorf("lnic %s: accelerator %s lacks a class", l.Name, u.Name)
		}
		if u.Kind != UnitAccel && u.AccelClass != "" {
			return fmt.Errorf("lnic %s: non-accelerator %s claims class %q", l.Name, u.Name, u.AccelClass)
		}
		if u.Threads < 1 {
			return fmt.Errorf("lnic %s: unit %s has %d threads", l.Name, u.Name, u.Threads)
		}
		if u.LocalMem >= len(l.Mems) {
			return fmt.Errorf("lnic %s: unit %s local mem out of range", l.Name, u.Name)
		}
		if u.GeneralPurpose() && u.ClassCycles == nil {
			return fmt.Errorf("lnic %s: general core %s lacks instruction pricing", l.Name, u.Name)
		}
		if !u.HasFPU && u.GeneralPurpose() && u.FloatEmulation <= 0 {
			return fmt.Errorf("lnic %s: FPU-less core %s lacks emulation factor", l.Name, u.Name)
		}
	}
	for i, m := range l.Mems {
		if m.ID != i {
			return fmt.Errorf("lnic %s: mem %d has ID %d", l.Name, i, m.ID)
		}
		if m.Bytes <= 0 {
			return fmt.Errorf("lnic %s: mem %s has no capacity", l.Name, m.Name)
		}
	}
	for i, h := range l.Hubs {
		if h.ID != i {
			return fmt.Errorf("lnic %s: hub %d has ID %d", l.Name, i, h.ID)
		}
	}
	for _, e := range l.CompMem {
		if e.Unit < 0 || e.Unit >= len(l.Units) || e.Mem < 0 || e.Mem >= len(l.Mems) {
			return fmt.Errorf("lnic %s: comp-mem edge (%d,%d) out of range", l.Name, e.Unit, e.Mem)
		}
	}
	for _, e := range l.Hier {
		if e.From < 0 || e.From >= len(l.Mems) || e.To < 0 || e.To >= len(l.Mems) {
			return fmt.Errorf("lnic %s: hierarchy edge (%d,%d) out of range", l.Name, e.From, e.To)
		}
		if l.Mems[e.From].Level >= l.Mems[e.To].Level {
			return fmt.Errorf("lnic %s: hierarchy edge %s→%s does not descend", l.Name, l.Mems[e.From].Name, l.Mems[e.To].Name)
		}
	}
	for _, e := range l.Pipes {
		if e.From < 0 || e.From >= len(l.Units) || e.To < 0 || e.To >= len(l.Units) {
			return fmt.Errorf("lnic %s: pipe edge (%d,%d) out of range", l.Name, e.From, e.To)
		}
		if l.Units[e.From].Stage > l.Units[e.To].Stage {
			return fmt.Errorf("lnic %s: pipe edge %s→%s goes backwards in stage", l.Name, l.Units[e.From].Name, l.Units[e.To].Name)
		}
	}
	if l.PktMem < 0 || l.PktMem >= len(l.Mems) {
		return fmt.Errorf("lnic %s: packet memory out of range", l.Name)
	}
	if l.PktSpillMem < 0 || l.PktSpillMem >= len(l.Mems) {
		return fmt.Errorf("lnic %s: packet spill memory out of range", l.Name)
	}
	return nil
}

// InstrCycles prices one instruction of class cl on unit u: the unit's class
// cost, software emulation at FloatEmulation × the ALU cost for floats on a
// core without an FPU, and the local memory's load latency for memory-class
// instructions on a unit that has one. The simulator, the predictor and the
// mapper's cost model all price instructions through this rule.
func (l *LNIC) InstrCycles(u *ComputeUnit, cl cir.Class) float64 {
	if cl == cir.ClassFloat && !u.HasFPU {
		return u.ClassCycles[cir.ClassALU] * u.FloatEmulation
	}
	if cl == cir.ClassMem && u.LocalMem >= 0 {
		return l.Mems[u.LocalMem].LoadCycles
	}
	return u.ClassCycles[cl]
}

// InstrPrices folds InstrCycles for unit u into the per-opcode price vector
// a cir.Meter books from. It prices the opcode catalog, OpNop through
// OpVCall (the last opcode); OpVCall stays zero because vcalls price
// themselves, and so do opcodes past the catalog, which cir.Compile refuses.
func (l *LNIC) InstrPrices(u *ComputeUnit) cir.Prices {
	var p cir.Prices
	l.FillInstrPrices(u, &p)
	return p
}

// FillInstrPrices writes InstrPrices(u) into p, every entry of it, without
// a copy of the vector on the stack.
func (l *LNIC) FillInstrPrices(u *ComputeUnit, p *cir.Prices) {
	for op := cir.OpNop; op < cir.OpVCall; op++ {
		p[op] = l.InstrCycles(u, cir.ClassOf(op))
	}
	clear(p[cir.OpVCall:])
}

// AccessCycles returns the latency of one load or store from unit into mem,
// including the NUMA weight of the connecting edge. ok is false when no
// edge connects them (the unit cannot reach that region).
func (l *LNIC) AccessCycles(unit, mem int, store bool) (cycles float64, ok bool) {
	m := &l.Mems[mem]
	base := m.LoadCycles
	if store {
		base = m.StoreCycles
	}
	// Local memory needs no edge when it belongs to the unit.
	if l.Units[unit].LocalMem == mem {
		return base, true
	}
	for _, e := range l.CompMem {
		if e.Unit == unit && e.Mem == mem {
			return base + e.ExtraCycles, true
		}
	}
	return 0, false
}

// CachedAccessCycles is AccessCycles assuming working set ws bytes against
// the region's cache: below cache capacity, hits dominate. The returned
// value is the expected latency under a simple fully-effective-cache model;
// the simulator models the cache concretely, and the gap between the two is
// part of Clara's prediction error.
func (l *LNIC) CachedAccessCycles(unit, mem int, store bool, ws int64) (float64, bool) {
	base, ok := l.AccessCycles(unit, mem, store)
	if !ok {
		return 0, false
	}
	m := &l.Mems[mem]
	if m.CacheBytes == 0 || ws <= 0 {
		return base, true
	}
	if ws <= m.CacheBytes {
		return m.CacheHitCycles, true
	}
	// Partial residency: hits in proportion to cache coverage.
	hitFrac := float64(m.CacheBytes) / float64(ws)
	return hitFrac*m.CacheHitCycles + (1-hitFrac)*base, true
}

// UnitsOfKind returns IDs of units of the given kind.
func (l *LNIC) UnitsOfKind(k UnitKind) []int {
	var out []int
	for _, u := range l.Units {
		if u.Kind == k {
			out = append(out, u.ID)
		}
	}
	return out
}

// PricingUnit returns the ID of the representative unit that prices
// instruction execution: the first general core, or the first MAU stage on
// a core-less ASIC. ok is false when the NIC has neither.
func (l *LNIC) PricingUnit() (id int, ok bool) {
	for _, k := range [...]UnitKind{UnitNPU, UnitMAU} {
		for _, u := range l.Units {
			if u.Kind == k {
				return u.ID, true
			}
		}
	}
	return 0, false
}

// Representatives maps every unit to its representative: the lowest-ID
// unit interchangeable with it. Two units are interchangeable when they
// agree in every ComputeUnit field but ID and Name, ClassCycles by content,
// and in their compute-memory edges, so they have the same capability,
// stage, prices and reachability. Accelerators are never interchangeable:
// each has a utilization row of its own.
func (l *LNIC) Representatives() []int {
	rep := make([]int, len(l.Units))
	for j := range l.Units {
		rep[j] = j
		for k := 0; k < j; k++ {
			if rep[k] == k && l.interchangeable(k, j) {
				rep[j] = k
				break
			}
		}
	}
	return rep
}

// interchangeable reports whether units a and b are interchangeable (see
// Representatives).
func (l *LNIC) interchangeable(a, b int) bool {
	u, v := &l.Units[a], &l.Units[b]
	if u.Kind == UnitAccel || u.Kind != v.Kind || u.Stage != v.Stage || u.Threads != v.Threads ||
		u.AccelClass != v.AccelClass || u.HasFPU != v.HasFPU || u.FloatEmulation != v.FloatEmulation ||
		u.FixedCycles != v.FixedCycles || u.PerByteCycles != v.PerByteCycles ||
		u.TableEntries != v.TableEntries || u.QueueCap != v.QueueCap || u.LocalMem != v.LocalMem ||
		u.NJPerCycle != v.NJPerCycle || !maps.Equal(u.ClassCycles, v.ClassCycles) {
		return false
	}
	// The two units' edges, in CompMem order, must agree pairwise.
	i, k := 0, 0
	for {
		for i < len(l.CompMem) && l.CompMem[i].Unit != a {
			i++
		}
		for k < len(l.CompMem) && l.CompMem[k].Unit != b {
			k++
		}
		if i == len(l.CompMem) || k == len(l.CompMem) {
			return i == len(l.CompMem) && k == len(l.CompMem)
		}
		if l.CompMem[i].Mem != l.CompMem[k].Mem || l.CompMem[i].ExtraCycles != l.CompMem[k].ExtraCycles {
			return false
		}
		i++
		k++
	}
}

// Accelerators returns IDs of accelerator units of the given class.
func (l *LNIC) Accelerators(class string) []int {
	var out []int
	for _, u := range l.Units {
		if u.Kind == UnitAccel && u.AccelClass == class {
			out = append(out, u.ID)
		}
	}
	return out
}

// MemByName finds a region by name.
func (l *LNIC) MemByName(name string) (int, bool) {
	for _, m := range l.Mems {
		if m.Name == name {
			return m.ID, true
		}
	}
	return 0, false
}

// TotalThreads returns the packet-level parallelism of the general cores.
func (l *LNIC) TotalThreads() int {
	n := 0
	for _, u := range l.Units {
		if u.GeneralPurpose() {
			n += u.Threads
		}
	}
	return n
}

// CyclesToNanos converts cycles at the LNIC clock to nanoseconds.
func (l *LNIC) CyclesToNanos(cycles float64) float64 {
	return cycles / l.ClockGHz
}
