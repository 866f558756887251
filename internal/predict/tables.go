package predict

import (
	"sort"
	"sync"

	"clara/internal/cir"
	"clara/internal/lnic"
	"clara/internal/symexec"
)

// nfTables is what the predictions of one NF read that no target, mapping
// or workload changes: each class's name, the position of its profile in
// the name-sorted Prediction.PerClass, and the program's vcall sites. A
// Pipeline builds them once, when its enumeration completes; a prediction
// without one builds them for the call.
type nfTables struct {
	names []string
	rank  []int
	sites *callSites
}

func newNFTables(prog *cir.Program, classes []symexec.Class) *nfTables {
	t := &nfTables{names: make([]string, len(classes)), rank: make([]int, len(classes)), sites: newCallSites(prog)}
	order := make([]int, len(classes))
	for ci := range classes {
		t.names[ci] = classes[ci].Name()
		order[ci] = ci
	}
	// Sorting the class indexes makes the comparisons and swaps sorting the
	// profiles by name would, so classes of equal name land in the same
	// places.
	sort.Slice(order, func(i, j int) bool { return t.names[order[i]] < t.names[order[j]] })
	for pos, ci := range order {
		t.rank[ci] = pos
	}
	return t
}

// targetTables is what predictions read of a target that no NF, mapping or
// workload changes: the pricing unit (nil when the target has none) and its
// instruction prices; the first unit of each accelerator class (nil when
// the target has none) and how many units the class has; the first parser
// and egress units; and the servers the cores offer. The shared built-in
// targets' are built once per process (sharedTargetTables); a prediction
// on any other target fills them for the call, in its engine's storage.
type targetTables struct {
	npu            *lnic.ComputeUnit
	prices         cir.Prices
	accels         [numAccels]*lnic.ComputeUnit
	accelUnits     [numAccels]int
	parser, egress *lnic.ComputeUnit
	coreServers    int
}

// sharedTables holds the tables of every shared built-in target, in
// lnic.Shared order, built on first use. They are read-only.
var sharedTables = sync.OnceValue(func() []*targetTables {
	shared := lnic.Shared()
	out := make([]*targetTables, len(shared))
	for i, nic := range shared {
		out[i] = new(targetTables)
		out[i].init(nic)
	}
	return out
})

// sharedTargetTables returns nic's kept tables when nic is a shared
// built-in target (lnic.SharedIndex), nil otherwise.
func sharedTargetTables(nic *lnic.LNIC) *targetTables {
	if i := lnic.SharedIndex(nic); i >= 0 {
		return sharedTables()[i]
	}
	return nil
}

// init fills t with nic's tables. It writes t field by field, so that no
// copy of the price vector lands on the stack of a worker goroutine.
func (t *targetTables) init(nic *lnic.LNIC) {
	t.npu, t.parser, t.egress = nil, nil, nil
	t.accels, t.accelUnits = [numAccels]*lnic.ComputeUnit{}, [numAccels]int{}
	t.coreServers = coreServers(nic)
	if id, ok := nic.PricingUnit(); ok {
		t.npu = &nic.Units[id]
		nic.FillInstrPrices(t.npu, &t.prices)
	} else {
		clear(t.prices[:])
	}
	for j := range nic.Units {
		u := &nic.Units[j]
		switch u.Kind {
		case lnic.UnitAccel:
			for k := range t.accels {
				if u.AccelClass == accelClass[k] {
					if t.accelUnits[k]++; t.accels[k] == nil {
						t.accels[k] = u
					}
				}
			}
		case lnic.UnitParser:
			if t.parser == nil {
				t.parser = u
			}
		case lnic.UnitEgress:
			if t.egress == nil {
				t.egress = u
			}
		}
	}
}

// coreServers is how many packets the cores serve at once: the general
// cores' threads, else the match-action stages' threads, and at least one.
func coreServers(nic *lnic.LNIC) int {
	n := nic.TotalThreads()
	if n == 0 {
		for _, id := range nic.UnitsOfKind(lnic.UnitMAU) {
			n += nic.Units[id].Threads
		}
	}
	if n == 0 {
		n = 1
	}
	return n
}

// callSites numbers the distinct (vcall, state slot) pairs a program's
// vcall instructions make, so that a prediction prices each pair once
// rather than on every call (costEnv.prices).
type callSites struct {
	// stride is the program's state count plus one. at[vc*stride+slot+1] is
	// the index in list of the pair (vc, slot), slot -1 standing for a call
	// that addresses no state, or -1 when the program makes no such call.
	stride int
	at     []int32
	list   []callSite
}

// callSite is one (vcall, state slot) pair; slot is -1 for a call that
// addresses no state.
type callSite struct {
	vc   cir.VCall
	slot int
}

func newCallSites(prog *cir.Program) *callSites {
	cs := &callSites{stride: len(prog.State) + 1}
	cs.at = make([]int32, int(cir.NumVCalls)*cs.stride)
	for i := range cs.at {
		cs.at[i] = -1
	}
	for _, b := range prog.Blocks {
		for k := range b.Instrs {
			in := &b.Instrs[k]
			if in.Op != cir.OpVCall || !in.Callee.Valid() {
				continue
			}
			slot := siteSlot(in)
			if slot >= len(prog.State) {
				continue // Verify refuses it, and so does the engine
			}
			if i := cs.index(in.Callee, slot); i >= 0 && cs.at[i] < 0 {
				cs.at[i] = int32(len(cs.list))
				cs.list = append(cs.list, callSite{in.Callee, slot})
			}
		}
	}
	return cs
}

// siteSlot is the state slot of a vcall's site: its Slot when the call
// addresses state, -1 when it does not.
func siteSlot(in *cir.Instr) int {
	if cir.VCalls[in.Callee].StateRef {
		return in.Slot
	}
	return -1
}

// index returns where at holds the pair (vc, slot), or -1 when it lies
// outside the table.
func (cs *callSites) index(vc cir.VCall, slot int) int {
	if !vc.Valid() || slot < -1 || slot+1 >= cs.stride {
		return -1
	}
	return int(vc)*cs.stride + slot + 1
}

// site returns the index in list of the call's (vcall, state slot) pair,
// or -1 when the program makes no such call.
func (cs *callSites) site(in *cir.Instr) int {
	if !in.Callee.Valid() {
		return -1
	}
	if i := cs.index(in.Callee, siteSlot(in)); i >= 0 {
		return int(cs.at[i])
	}
	return -1
}
