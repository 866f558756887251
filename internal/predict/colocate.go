package predict

import (
	"context"
	"fmt"

	"clara/internal/lnic"
	"clara/internal/mapper"
)

// This file predicts performance under multi-tenant co-location. The model
// has two parts, mirroring how the multi-tenant simulator arbitrates:
//
//  1. General cores are hard-partitioned by weight, which slicing already
//     captures: each tenant is mapped and predicted against an
//     lnic.Slice(weight/total) view of the NIC.
//  2. Accelerators, hubs and memories are shared, so each tenant's service
//     times inflate by a fitted slowdown curve (lnic.ContentionModel)
//     evaluated at the *other* tenants' aggregate load on that resource —
//     the loads coming from the solo predictions' ResourceLoad maps, whose
//     keys match the simulator's contention-report keys.
//
// The naive alternative — predicting each tenant alone on the full NIC —
// ignores both effects; the eval harness computes it as a baseline from the
// full-NIC mappings it simulates.

// ColocTenant is one NF in a co-location scenario.
type ColocTenant struct {
	// NF is the tenant's prepared pipeline; co-location reuses its classes,
	// annotated graphs and engines.
	NF *Pipeline
	// Weight is the tenant's share of the partitioned resources; a weight
	// ≤ 0 deactivates the tenant (its prediction slot stays nil).
	Weight float64
	// Workload carries the tenant's own traffic expectations.
	Workload mapper.Workload
}

// PredictColocated predicts every active tenant's performance profile when
// co-located on nic. With a single active tenant the result is exactly the
// tenant's solo Predict on the full NIC (no slicing, no inflation), so
// co-location analysis degrades gracefully to a solo prediction. model may
// be nil, selecting the analytic fallback curves; fit one with
// microbench.FitContentionContext for simulator-calibrated slowdowns. Every
// tenant stage runs through the tenant's Pipeline, under ctx.
func PredictColocated(ctx context.Context, tenants []ColocTenant, nic *lnic.LNIC, model *lnic.ContentionModel, opts Options) ([]*Prediction, error) {
	var active []int
	total := 0.0
	for i, t := range tenants {
		if t.Weight <= 0 {
			continue
		}
		if t.NF == nil {
			return nil, fmt.Errorf("predict: co-located tenant %d has no NF", i)
		}
		active = append(active, i)
		total += t.Weight
	}
	if len(active) == 0 {
		return nil, fmt.Errorf("predict: no active co-located tenants")
	}
	out := make([]*Prediction, len(tenants))

	// One active tenant: the full NIC, the plain pipeline, byte-identical
	// to a solo prediction.
	if len(active) == 1 {
		t := tenants[active[0]]
		p, err := t.NF.Predict(ctx, nic, t.Workload, mapper.Hints{}, opts)
		if err != nil {
			return nil, err
		}
		out[active[0]] = p
		return out, nil
	}

	// Phase 1: per-tenant solo predictions on weighted slices. The mapping
	// is solved against the slice so placement adapts to the shrunken core
	// pool, exactly as the simulator partitions threads.
	type soloRun struct {
		pred *Prediction
		m    *mapper.Mapping
		sl   *lnic.LNIC
	}
	solos := make(map[int]soloRun, len(active))
	// The phase-1 solos must report per-resource loads — that's the signal
	// phase 2 couples tenants through — regardless of what the caller asked
	// for on the final predictions.
	soloOpts := opts
	soloOpts.ResourceLoad = true
	for _, i := range active {
		t := tenants[i]
		sl := nic.Slice(t.Weight / total)
		m, err := t.NF.Map(ctx, sl, t.Workload, mapper.Hints{})
		if err != nil {
			return nil, fmt.Errorf("predict: co-located tenant %d: mapping %s on %s: %w", i, t.NF.Program.Name, sl.Name, err)
		}
		p, err := t.NF.PredictMapped(ctx, sl, m, t.Workload, soloOpts)
		if err != nil {
			return nil, fmt.Errorf("predict: co-located tenant %d: %w", i, err)
		}
		solos[i] = soloRun{pred: p, m: m, sl: sl}
	}

	// Phase 2: contended re-prediction. Each tenant sees the others'
	// aggregate per-resource load and pays the fitted slowdown on shared
	// service times.
	for _, i := range active {
		other := map[string]float64{}
		for _, j := range active {
			if j == i {
				continue
			}
			for key, load := range solos[j].pred.ResourceLoad {
				other[key] += load
			}
		}
		infl := inflate(solos[i].sl, model, other)
		p, err := tenants[i].NF.PredictMapped(ctx, infl, solos[i].m, tenants[i].Workload, opts)
		if err != nil {
			return nil, fmt.Errorf("predict: co-located tenant %d contended: %w", i, err)
		}
		out[i] = p
	}
	return out, nil
}

// inflate clones the tenant's NIC view with shared service times scaled by
// the model's slowdown at the competing load: accelerator fixed and
// per-byte cycles, hub service cycles, and memory load/store/cache-hit
// latencies. Topology is untouched, so mappings solved against the original
// slice stay valid.
func inflate(nic *lnic.LNIC, model *lnic.ContentionModel, other map[string]float64) *lnic.LNIC {
	c := nic.Clone()
	for i := range c.Units {
		u := &c.Units[i]
		if u.Kind != lnic.UnitAccel {
			continue
		}
		if s := model.Slowdown(lnic.ResAccel, other["accel:"+u.AccelClass]); s > 1 {
			u.FixedCycles *= s
			u.PerByteCycles *= s
		}
	}
	for i := range c.Hubs {
		h := &c.Hubs[i]
		if s := model.Slowdown(lnic.ResHub, other["hub:"+h.Name]); s > 1 {
			h.ServiceCycles *= s
		}
	}
	for i := range c.Mems {
		m := &c.Mems[i]
		if s := model.Slowdown(lnic.ResMem, other["mem:"+m.Name]); s > 1 {
			m.LoadCycles *= s
			m.StoreCycles *= s
			m.CacheHitCycles *= s
		}
	}
	return c
}
