package lnic

import (
	"fmt"
	"sort"
	"strings"
)

// This file models cross-tenant contention on shared LNIC resources. When
// several NFs co-locate on one NIC the general cores are hard-partitioned,
// but accelerators, switching hubs and the memory hierarchy (in particular
// shared caches) are not — a tenant's requests queue behind its neighbours'.
// A ContentionModel captures that effect as per-resource-kind slowdown
// curves: service time multipliers as a function of the *competing* load, in
// the same utilization units the predictor computes (rate × demand /
// (servers × clock)). Curves are fit empirically by microbench probes run
// under synthetic contender load; see microbench.FitContentionContext.

// CurvePoint is one sample of a slowdown curve: at competing load Load, the
// resource's effective service time is Slowdown × its uncontended value.
type CurvePoint struct {
	Load     float64
	Slowdown float64
}

// SlowdownCurve is a piecewise-linear slowdown-vs-competing-load curve.
// Points must be sorted by Load; Fit-produced curves always are.
type SlowdownCurve []CurvePoint

// At interpolates the slowdown at the given competing load. Left of the
// first point the curve is anchored at (0, 1) — zero competing load means no
// slowdown by definition; right of the last point it extrapolates the final
// segment's slope. The result is clamped to ≥ 1: contention never makes a
// resource faster.
func (c SlowdownCurve) At(load float64) float64 {
	if load <= 0 || len(c) == 0 {
		return 1
	}
	prev := CurvePoint{Load: 0, Slowdown: 1}
	for _, p := range c {
		if load <= p.Load {
			if p.Load == prev.Load {
				return clampSlowdown(p.Slowdown)
			}
			f := (load - prev.Load) / (p.Load - prev.Load)
			return clampSlowdown(prev.Slowdown + f*(p.Slowdown-prev.Slowdown))
		}
		prev = p
	}
	// Beyond the fitted range: extend the last segment's slope.
	last := c[len(c)-1]
	from := CurvePoint{Load: 0, Slowdown: 1}
	if len(c) >= 2 {
		from = c[len(c)-2]
	}
	slope := 0.0
	if last.Load > from.Load {
		slope = (last.Slowdown - from.Slowdown) / (last.Load - from.Load)
	}
	if slope < 0 {
		slope = 0
	}
	return clampSlowdown(last.Slowdown + slope*(load-last.Load))
}

func clampSlowdown(s float64) float64 {
	if s < 1 {
		return 1
	}
	return s
}

// Resource kinds a ContentionModel distinguishes. Cores are absent on
// purpose: co-located tenants get disjoint core partitions, so cores slow
// down by slicing, not by contention.
const (
	ResAccel = "accel"
	ResHub   = "hub"
	ResMem   = "mem"
)

// ContentionModel maps a resource kind to its fitted slowdown curve.
type ContentionModel struct {
	// NIC names the profile the curves were fit against.
	NIC string
	// Curves is keyed by resource kind (ResAccel, ResHub, ResMem).
	Curves map[string]SlowdownCurve
}

// Slowdown evaluates the kind's curve at the given competing load. A kind
// without a fitted curve (or a nil model) falls back to the linear
// first-order queueing estimate 1 + load: each unit of competing utilization
// adds one service time of expected wait.
func (m *ContentionModel) Slowdown(kind string, load float64) float64 {
	if load <= 0 {
		return 1
	}
	if m != nil {
		if c, ok := m.Curves[kind]; ok && len(c) > 0 {
			return c.At(load)
		}
	}
	return 1 + load
}

// String renders the model compactly, one kind per line in sorted order.
func (m *ContentionModel) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "contention model for %s\n", m.NIC)
	kinds := make([]string, 0, len(m.Curves))
	for k := range m.Curves {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&b, "  %-6s", k)
		for _, p := range m.Curves[k] {
			fmt.Fprintf(&b, "  (%.2f, %.2fx)", p.Load, p.Slowdown)
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// Clone deep-copies the LNIC topology so callers can perturb performance
// parameters (contention-inflated service times, degraded latencies) without
// aliasing the original. ClassCycles maps stay shared: they are read-only
// pricing tables, and no perturbation path mutates them.
func (l *LNIC) Clone() *LNIC {
	c := *l
	c.Units = append([]ComputeUnit(nil), l.Units...)
	c.Mems = append([]MemRegion(nil), l.Mems...)
	c.Hubs = append([]Hub(nil), l.Hubs...)
	c.CompMem = append([]CompMemEdge(nil), l.CompMem...)
	c.Hier = append([]HierEdge(nil), l.Hier...)
	c.Pipes = append([]PipeEdge(nil), l.Pipes...)
	return &c
}
