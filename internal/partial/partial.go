// Package partial analyzes partial offloading — §6 of the paper: "another
// useful task is to understand the performance of partial offloading, where
// the NF is partitioned into two components — one resident in the SmartNIC
// and another in server CPUs. Capturing partial offloading performance
// requires reasoning about the host/NIC interconnect (e.g., PCIe)".
//
// The analyzer enumerates topological prefix cuts of the NF's dataflow
// graph: for each cut, the prefix runs on the SmartNIC, the suffix on the
// host CPUs, and packets that reach the suffix cross the PCIe interconnect
// (and cross back for transmission). Both sides are priced with the same
// cost model the mapper uses; state objects are placed on the side that
// uses them, with split use resolved to the cheaper side plus remote-access
// penalties for the other. Each cut reports latency, throughput, and an
// energy estimate, so the developer can pick the latency-optimal or the
// energy-optimal partition.
package partial

import (
	"context"
	"fmt"
	"math"
	"strings"

	"clara/internal/budget"
	"clara/internal/cir"
	"clara/internal/lnic"
	"clara/internal/mapper"
	"clara/internal/runner"
)

// PCIe parameterizes the host/NIC interconnect.
type PCIe struct {
	// LatencyNs is the one-way DMA latency.
	LatencyNs float64
	// GBps is the effective payload bandwidth.
	GBps float64
	// PerOpNs is the descriptor/doorbell overhead per crossing.
	PerOpNs float64
	// EnergyNJPerCrossing is the interconnect energy per packet crossing.
	EnergyNJPerCrossing float64
}

// DefaultPCIe models a PCIe 3.0 x8 link.
func DefaultPCIe() PCIe {
	return PCIe{LatencyNs: 500, GBps: 12, PerOpNs: 150, EnergyNJPerCrossing: 30}
}

// crossNs is the one-way time for one packet of wire bytes.
func (p PCIe) crossNs(wireBytes float64) float64 {
	return p.LatencyNs + p.PerOpNs + wireBytes/p.GBps
}

// Cut is one evaluated partition: the first Index nodes (in topological
// order) run on the NIC, the rest on the host.
type Cut struct {
	Index     int
	NICNodes  []int
	HostNodes []int
	// CrossProb is the probability a packet reaches the host suffix.
	CrossProb float64
	// Latency components in nanoseconds (cut-relevant processing only;
	// fixed NIC ingress/egress overhead is common to all cuts).
	NICNanos   float64
	HostNanos  float64
	PCIeNanos  float64
	TotalNanos float64
	// ThroughputPPS is the bottleneck-limited capacity of this partition.
	ThroughputPPS float64
	// EnergyNJ is the per-packet energy estimate.
	EnergyNJ float64
	// Feasible is false when some prefix node has no capable NIC unit; the
	// Reason says which.
	Feasible bool
	Reason   string
}

// Analysis is the full cut sweep.
type Analysis struct {
	NFName string
	Cuts   []Cut
	// Best is the latency-optimal feasible cut; EnergyBest the
	// energy-optimal one. FullNIC and FullHost index the two extremes.
	Best       *Cut
	EnergyBest *Cut
	FullNIC    *Cut
	FullHost   *Cut
}

// String renders the sweep as a table.
func (a *Analysis) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "partial offloading analysis for %s (NIC prefix / host suffix)\n", a.NFName)
	fmt.Fprintf(&b, "%-6s %-6s %9s %9s %9s %10s %10s %9s\n",
		"on-NIC", "cross", "NIC ns", "PCIe ns", "host ns", "total ns", "pps", "nJ/pkt")
	for i := range a.Cuts {
		c := &a.Cuts[i]
		if !c.Feasible {
			fmt.Fprintf(&b, "%-6d infeasible: %s\n", c.Index, c.Reason)
			continue
		}
		marker := ""
		if a.Best != nil && c.Index == a.Best.Index {
			marker = "  <- fastest"
		}
		if a.EnergyBest != nil && c.Index == a.EnergyBest.Index {
			marker += "  <- most efficient"
		}
		fmt.Fprintf(&b, "%-6d %5.2f %9.0f %9.0f %9.0f %10.0f %10.0f %9.1f%s\n",
			c.Index, c.CrossProb, c.NICNanos, c.PCIeNanos, c.HostNanos,
			c.TotalNanos, c.ThroughputPPS, c.EnergyNJ, marker)
	}
	return b.String()
}

// AnalyzeContext evaluates every topological prefix cut of g between nic
// and host; g is read, never modified. Cuts are evaluated concurrently on
// parallel workers (values < 1 select GOMAXPROCS, 1 forces the sequential
// sweep). Each cut is an independent evaluation against shared read-only
// cost models, and results land at their cut index, so the analysis is
// identical at any width. A cancelled sweep stops promptly (the worker pool
// aborts on first error) and returns a *budget.CanceledError wrapping
// ctx.Err().
func AnalyzeContext(ctx context.Context, g *cir.Graph, nic, host *lnic.LNIC, wl mapper.Workload, pcie PCIe, parallel int) (*Analysis, error) {
	if err := nic.Validate(); err != nil {
		return nil, err
	}
	if err := host.Validate(); err != nil {
		return nil, err
	}
	order := topoOrder(g)
	if len(order) != len(g.Nodes) {
		return nil, fmt.Errorf("partial: dataflow graph has a cycle")
	}
	visits := g.ExpectedVisits()
	nicCM := mapper.NewCostModel(nic, wl)
	hostCM := mapper.NewCostModel(host, wl)
	nicBest := bestUnitCosts(g, nic, nicCM)
	hostBest := bestUnitCosts(g, host, hostCM)

	an := &Analysis{NFName: g.Prog.Name}
	cuts, err := runner.Map(ctx, parallel, len(order)+1,
		func(cctx context.Context, cut int) (Cut, error) {
			if err := cctx.Err(); err != nil {
				return Cut{}, err
			}
			onNIC := map[int]bool{}
			var nicNodes, hostNodes []int
			for i, n := range order {
				if i < cut {
					onNIC[n] = true
					nicNodes = append(nicNodes, n)
				} else {
					hostNodes = append(hostNodes, n)
				}
			}
			c := evalCut(g, visits, onNIC, nicNodes, hostNodes, nic, host, nicCM, hostCM, nicBest, hostBest, wl, pcie)
			c.Index = cut
			return *c, nil
		})
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, &budget.CanceledError{Stage: "partial", NF: g.Prog.Name, Err: cerr}
		}
		return nil, err
	}
	an.Cuts = cuts
	for i := range an.Cuts {
		c := &an.Cuts[i]
		if c.Index == 0 {
			an.FullHost = c
		}
		if c.Index == len(g.Nodes) {
			an.FullNIC = c
		}
		if !c.Feasible {
			continue
		}
		if an.Best == nil || c.TotalNanos < an.Best.TotalNanos {
			an.Best = c
		}
		if an.EnergyBest == nil || c.EnergyNJ < an.EnergyBest.EnergyNJ {
			an.EnergyBest = c
		}
	}
	if an.Best == nil {
		return nil, fmt.Errorf("partial: no feasible cut (not even full-host?)")
	}
	return an, nil
}

// bestUnitCosts prices every node of g on its cheapest capable unit of
// nic, NaN when no unit of nic can run it (a cheapest price is never NaN).
// A node's price does not depend on the cut, so every cut reads one table.
func bestUnitCosts(g *cir.Graph, nic *lnic.LNIC, cm *mapper.CostModel) []float64 {
	best := make([]float64, len(g.Nodes))
	for i := range g.Nodes {
		node := &g.Nodes[i]
		units := mapper.AllowedUnits(nic, node, mapper.Hints{})
		if len(units) == 0 {
			best[i] = math.NaN()
			continue
		}
		best[i] = math.Inf(1)
		for _, j := range units {
			if cost := cm.NodeCost(g, node, j); cost < best[i] {
				best[i] = cost
			}
		}
	}
	return best
}

func evalCut(g *cir.Graph, visits []float64, onNIC map[int]bool, nicNodes, hostNodes []int,
	nic, host *lnic.LNIC, nicCM, hostCM *mapper.CostModel, nicBest, hostBest []float64,
	wl mapper.Workload, pcie PCIe) *Cut {

	c := &Cut{NICNodes: nicNodes, HostNodes: hostNodes, Feasible: true}

	// Node compute costs, each on the best capable unit of its side.
	nicCycles, hostCycles := 0.0, 0.0
	for _, i := range nicNodes {
		if math.IsNaN(nicBest[i]) {
			c.Feasible = false
			c.Reason = fmt.Sprintf("node n%d (%s) has no capable NIC unit", i, g.Nodes[i].Kind)
			return c
		}
		nicCycles += visits[i] * nicBest[i]
	}
	for _, i := range hostNodes {
		if math.IsNaN(hostBest[i]) {
			c.Feasible = false
			c.Reason = fmt.Sprintf("node n%d (%s) has no capable host unit", i, g.Nodes[i].Kind)
			return c
		}
		hostCycles += visits[i] * hostBest[i]
	}

	// State placement: each state goes to the side that uses it; split use
	// picks the cheaper side, pricing the other side's operations as PCIe
	// round trips (one per operation), which is what makes shared state the
	// real cost of partial offloading.
	nicUse := mapper.StateUsage(g, visits, func(n int) bool { return onNIC[n] })
	hostUse := mapper.StateUsage(g, visits, func(n int) bool { return !onNIC[n] })
	remoteOpNs := 2 * (pcie.LatencyNs + pcie.PerOpNs) // small-transfer round trip
	for _, obj := range g.Prog.State {
		nu, hu := nicUse[obj.Name], hostUse[obj.Name]
		nOps := opCount(nu, wl)
		hOps := opCount(hu, wl)
		if nOps == 0 && hOps == 0 {
			continue
		}
		// Read-only states (DPI pattern automata) replicate to both sides
		// for free — no remote traffic, each side reads its local copy.
		if obj.ReadOnly || obj.Kind == cir.StatePattern {
			nRegion, nOK := nicCM.BestRegionFor(obj)
			hRegion, hOK := hostCM.BestRegionFor(obj)
			if nOps > 0 && !nOK || hOps > 0 && !hOK {
				c.Feasible = false
				c.Reason = fmt.Sprintf("read-only state %s does not fit", obj.Name)
				return c
			}
			if nOps > 0 {
				nicCycles += nicCM.StateCost(obj, nu, nRegion)
			}
			if hOps > 0 {
				hostCycles += hostCM.StateCost(obj, hu, hRegion)
			}
			continue
		}
		// Option A: state on the NIC.
		aNs := math.Inf(1)
		if region, ok := nicCM.BestRegionFor(obj); ok {
			aNs = nicCM.StateCost(obj, nu, region)/nic.ClockGHz + hOps*remoteOpNs
		}
		// Option B: state on the host.
		bNs := math.Inf(1)
		if region, ok := hostCM.BestRegionFor(obj); ok {
			bNs = hostCM.StateCost(obj, hu, region)/host.ClockGHz + nOps*remoteOpNs
		}
		best := math.Min(aNs, bNs)
		if math.IsInf(best, 1) {
			c.Feasible = false
			c.Reason = fmt.Sprintf("state %s fits neither side", obj.Name)
			return c
		}
		// Attribute the local processing to its side and remote penalties to
		// PCIe time.
		if aNs <= bNs {
			nicCycles += nicCM.StateCost(obj, nu, mustRegion(nicCM, obj))
			c.PCIeNanos += hOps * remoteOpNs
		} else {
			hostCycles += hostCM.StateCost(obj, hu, mustRegion(hostCM, obj))
			c.PCIeNanos += nOps * remoteOpNs
		}
	}

	// Crossing probability: mass flowing over cut edges.
	cross := 0.0
	for _, e := range g.Edges {
		if onNIC[e.From] && !onNIC[e.To] {
			cross += visits[e.From] * e.Prob
		}
	}
	if len(nicNodes) == 0 {
		cross = 1 // everything starts on the host
	}
	if cross > 1 {
		cross = 1
	}
	c.CrossProb = cross

	c.NICNanos = nicCycles / nic.ClockGHz
	c.HostNanos = hostCycles / host.ClockGHz
	// Down and back: packets processed on the host return through the NIC
	// for transmission.
	c.PCIeNanos += cross * 2 * pcie.crossNs(wl.AvgWire)
	c.TotalNanos = c.NICNanos + c.HostNanos + c.PCIeNanos

	// Throughput: the binding resource among NIC cores, host cores and the
	// PCIe link (only crossing packets consume it).
	nicCap := math.Inf(1)
	if nicCycles > 0 {
		nicCap = float64(coreThreads(nic)) * nic.ClockGHz * 1e9 / nicCycles
	}
	hostCap := math.Inf(1)
	if hostCycles > 0 {
		hostCap = float64(coreThreads(host)) * host.ClockGHz * 1e9 / hostCycles
	}
	pcieCap := math.Inf(1)
	if cross > 0 {
		perPktNs := 2 * wl.AvgWire / pcie.GBps // bandwidth-limited, full duplex
		pcieCap = 1e9 / (cross * perPktNs)
	}
	c.ThroughputPPS = math.Min(nicCap, math.Min(hostCap, pcieCap))

	// Energy: side cycles at each side's core coefficient plus interconnect
	// crossings (a coefficient-level estimate; the predictor's per-access
	// model applies to full offloads).
	c.EnergyNJ = nicCycles*coreNJ(nic) + hostCycles*coreNJ(host) +
		cross*2*pcie.EnergyNJPerCrossing
	return c
}

// opCount is the per-packet remote-operation count for a state accessed
// across PCIe. A DPI scan touches the automaton once per payload byte, so
// remoting it is priced per byte — which is exactly why pattern state gets
// replicated instead.
func opCount(u mapper.Usage, wl mapper.Workload) float64 {
	return u.Lookups + u.Puts + u.Deletes + u.Incrs + u.ArrOps + u.Sketch + u.DPI*wl.AvgPayload
}

func mustRegion(cm *mapper.CostModel, obj cir.StateObj) int {
	r, _ := cm.BestRegionFor(obj)
	return r
}

func coreThreads(l *lnic.LNIC) int {
	n := l.TotalThreads()
	if n == 0 {
		for _, id := range l.UnitsOfKind(lnic.UnitMAU) {
			n += l.Units[id].Threads
		}
	}
	if n == 0 {
		n = 1
	}
	return n
}

func coreNJ(l *lnic.LNIC) float64 {
	if id, ok := l.PricingUnit(); ok {
		return l.Units[id].NJPerCycle
	}
	return 0
}

func topoOrder(g *cir.Graph) []int {
	inDeg := make([]int, len(g.Nodes))
	for _, e := range g.Edges {
		inDeg[e.To]++
	}
	var queue, order []int
	for i := range g.Nodes {
		if inDeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, e := range g.Edges {
			if e.From == n {
				inDeg[e.To]--
				if inDeg[e.To] == 0 {
					queue = append(queue, e.To)
				}
			}
		}
	}
	return order
}
