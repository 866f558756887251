// Package predict produces Clara's output artifact: the performance profile
// of an unported NF on a target SmartNIC under a given workload (§3.5 of the
// paper). Given a solved mapping, it simulates how each packet *class*
// traverses the parameterized LNIC — re-running the compiled CIR with an
// expectation-based cost environment rather than concrete
// microarchitectural state — and aggregates the per-class latencies with
// workload-derived class probabilities. It also estimates idealized
// throughput by bottleneck analysis and supports interference analysis via
// LNIC slicing.
package predict

import (
	"fmt"
	"math"
	"strings"

	"clara/internal/cir"
	"clara/internal/lnic"
	"clara/internal/mapper"
	"clara/internal/symexec"
)

// Options tune the workload-unobservable attribute rates.
type Options struct {
	// DPIMatchRate is P(payload matches a DPI signature); default 0.01.
	DPIMatchRate float64
	// HeavyRate is P(flow is a heavy hitter / out of meter tokens);
	// default 0.05.
	HeavyRate float64
	// NoQueueing disables the M/M/c waiting-time correction (ablation).
	NoQueueing bool
	// ResourceLoad fills Prediction.ResourceLoad with per-resource offered
	// utilizations. Off by default: the co-location predictor is the only
	// consumer, and building the map (plus the per-class memory-cycle
	// tracking behind it) costs allocations the solo hot path — pinned by
	// BenchmarkPredict's allocs/op baseline — should not pay.
	ResourceLoad bool
}

// ClassPrediction is the latency prediction for one packet class — the
// §3.5 example output ("TCP SYN packets experience higher latency, but the
// following packets will hit the flow cache").
type ClassPrediction struct {
	Name   string
	Attrs  symexec.Attrs
	Prob   float64
	Cycles float64
	// EnergyNJ is the predicted per-packet energy for this class in
	// nanojoules (§6's energy-analysis extension).
	EnergyNJ float64
	Verdict  uint64
}

// Prediction is a complete performance profile.
type Prediction struct {
	NFName   string
	NICName  string
	PerClass []ClassPrediction
	// MeanCycles is the expected per-packet latency in NIC cycles,
	// including fixed ingress/egress overhead and queueing correction.
	MeanCycles float64
	// MeanNanos converts MeanCycles at the NIC clock.
	MeanNanos float64
	// FixedCycles is the ingress/egress/switch overhead component.
	FixedCycles float64
	// QueueCycles is the analytic queueing-delay component at the offered
	// rate.
	QueueCycles float64
	// ThroughputPPS is the idealized saturation throughput.
	ThroughputPPS float64
	// Bottleneck names the resource limiting throughput.
	Bottleneck string
	// Saturated reports that the offered rate exceeds predicted capacity.
	Saturated bool
	// EnergyNJ is the expected per-packet processing energy in nanojoules;
	// PowerWatts is EnergyNJ at the offered rate.
	EnergyNJ   float64
	PowerWatts float64
	// ResourceLoad is the offered utilization per resource at the workload
	// rate (rate × demand / (servers × clock)), keyed "cores", "accel:<class>",
	// "hub:<name>" and "mem:<name>" — the same keys the multi-tenant
	// simulator's ContentionReport uses. Values are uncapped (> 1 means the
	// resource is oversubscribed). Nil unless Options.ResourceLoad is set
	// and the workload has a rate. The
	// co-location predictor sums other tenants' loads through these entries;
	// memory loads are informational and never enter the bottleneck scan.
	ResourceLoad map[string]float64
}

// String renders the profile.
func (p *Prediction) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "prediction: %s on %s\n", p.NFName, p.NICName)
	fmt.Fprintf(&b, "  mean latency: %.0f cycles (%.0f ns)\n", p.MeanCycles, p.MeanNanos)
	fmt.Fprintf(&b, "  fixed overhead: %.0f cycles, queueing: %.0f cycles\n", p.FixedCycles, p.QueueCycles)
	fmt.Fprintf(&b, "  idealized throughput: %.0f pps (bottleneck: %s)\n", p.ThroughputPPS, p.Bottleneck)
	fmt.Fprintf(&b, "  energy: %.1f nJ/pkt (%.2f W at the offered rate)\n", p.EnergyNJ, p.PowerWatts)
	if p.Saturated {
		fmt.Fprintf(&b, "  WARNING: offered rate exceeds predicted capacity\n")
	}
	for _, c := range p.PerClass {
		fmt.Fprintf(&b, "  class %-24s p=%.3f  %.0f cycles  verdict=%d\n", c.Name, c.Prob, c.Cycles, c.Verdict)
	}
	return b.String()
}

// PredictWithClasses computes the performance profile of prog mapped by m
// onto nic under workload wl. The classes must come from
// symexec.EnumerateContext on the same program; they are read, never
// modified, so one enumeration can serve concurrent predictions.
func PredictWithClasses(prog *cir.Program, classes []symexec.Class, m *mapper.Mapping, nic *lnic.LNIC, wl mapper.Workload, opts Options) (*Prediction, error) {
	// A program the engine cannot execute is refused here with the compile
	// error.
	comp, err := cir.Compile(prog)
	if err != nil {
		return nil, fmt.Errorf("predict: %w", err)
	}
	return predictCompiled(&engine{comp: comp}, classes, nil, m, nic, wl, opts)
}

// engine is a compiled engine for a program and the storage its predictions
// price in: the cost environment, and the tables of a target that is not
// shared. A Pipeline keeps engines between calls.
type engine struct {
	comp   *cir.Compiled
	env    costEnv
	tables targetTables
}

// predictCompiled is PredictWithClasses on eng, whose engine was compiled
// from the program. The engine runs every class of this call, so it must
// not run anything else until the call returns. nt is the program's tables
// when the caller keeps them; nil builds them for the call. nic's tables
// are the kept ones when nic is a shared built-in target, else built for
// the call in the engine's storage.
func predictCompiled(eng *engine, classes []symexec.Class, nt *nfTables, m *mapper.Mapping, nic *lnic.LNIC, wl mapper.Workload, opts Options) (*Prediction, error) {
	comp := eng.comp
	prog := comp.Program()
	if nt == nil {
		nt = newNFTables(prog, classes)
	}
	tt := sharedTargetTables(nic)
	if tt == nil {
		eng.tables.init(nic)
		tt = &eng.tables
	}
	w := symexec.WeightsFor(wl)
	if opts.DPIMatchRate > 0 {
		w.DPIMatch = opts.DPIMatchRate
	}
	if opts.HeavyRate > 0 {
		w.Heavy = opts.HeavyRate
	}
	probs := symexec.Normalize(classes, w)
	cm := mapper.NewCostModel(nic, wl)

	// Instructions are priced on the representative core; a NIC without one
	// prices them at zero.
	env := &eng.env
	env.init(tt, nt.sites, prog, m, nic, wl, cm, opts.ResourceLoad)
	meter := env.meter(&tt.prices)
	hooks := cir.Hooks{Meter: &meter, MaxSteps: 2_000_000}
	// Each class's profile goes where sorting the profiles by name would
	// put it, while the sums below run in class order.
	pred := &Prediction{NFName: prog.Name, NICName: nic.Name, PerClass: make([]ClassPrediction, len(classes))}
	var meanExec float64
	var accelUse [numAccels]float64 // expected visits/packet per accel class
	var accelSvc [numAccels]float64 // expected service/visit per accel class
	var memCycles []float64         // expected stall cycles/packet per region (ResourceLoad only)
	if opts.ResourceLoad {
		memCycles = make([]float64, len(nic.Mems))
	}
	for ci := range classes {
		attrs := classes[ci].Attrs
		attrs.PayloadLen = int(wl.AvgPayload)
		env.reset(attrs)
		verdict, err := comp.Run(env, &hooks)
		if err != nil {
			return nil, fmt.Errorf("predict: class %s: %w", nt.names[ci], err)
		}
		energy := env.energyNJ()
		pred.PerClass[nt.rank[ci]] = ClassPrediction{
			Name:     nt.names[ci],
			Attrs:    classes[ci].Attrs,
			Prob:     probs[ci],
			Cycles:   env.cycles,
			EnergyNJ: energy,
			Verdict:  verdict,
		}
		meanExec += probs[ci] * env.cycles
		pred.EnergyNJ += probs[ci] * energy
		for k, uses := range env.accelUses {
			if uses > 0 {
				accelUse[k] += probs[ci] * uses
				accelSvc[k] = env.accelSvc[k] / uses
			}
		}
		for region, cyc := range env.memCycles {
			if cyc != 0 {
				memCycles[region] += probs[ci] * cyc
			}
		}
	}
	// Fixed ingress/egress overhead, mirroring the datapath stages.
	fixed := 0.0
	if len(nic.Hubs) > 0 {
		fixed += nic.Hubs[0].ServiceCycles
	}
	fixed += wl.AvgWire/64 + 1 // DMA
	if m.ParseOnEngine && tt.parser != nil {
		fixed += tt.parser.FixedCycles
	}
	if tt.egress != nil {
		fixed += tt.egress.FixedCycles
	}
	if len(nic.Hubs) > 1 {
		fixed += nic.Hubs[1].ServiceCycles
	}
	pred.FixedCycles = fixed

	// Throughput: bottleneck analysis over resources.
	clockHz := nic.ClockGHz * 1e9
	type resource struct {
		name    string
		key     string // ResourceLoad key, aligned with the simulator's contention keys
		servers float64
		demand  float64 // cycles per packet on this resource
	}
	// rlKey materializes a ResourceLoad key; when loads aren't requested it
	// returns "" so the hot path never pays the string concat.
	rlKey := func(prefix, name string) string {
		if !opts.ResourceLoad {
			return ""
		}
		return prefix + name
	}
	// Accelerator time leaves the cores' demand in class index order, and
	// accelerators join the resource list in it, so the bottleneck's
	// tie-breaking and the queueing correction's summation order are fixed.
	accelCycles := 0.0
	for k, uses := range accelUse {
		if uses != 0 {
			accelCycles += uses * accelSvc[k]
		}
	}
	resources := make([]resource, 0, 1+numAccels+len(nic.Hubs))
	resources = append(resources, resource{"cores", "cores", float64(tt.coreServers), meanExec - accelCycles})
	for k, uses := range accelUse {
		u := tt.accels[k]
		if uses <= 0 || u == nil {
			continue
		}
		resources = append(resources, resource{
			name:    u.Name,
			key:     rlKey("accel:", accelClass[k]),
			servers: float64(tt.accelUnits[k] * u.Threads),
			demand:  uses * accelSvc[k],
		})
	}
	for _, h := range nic.Hubs {
		resources = append(resources, resource{h.Name, rlKey("hub:", h.Name), lnic.HubServers, h.ServiceCycles})
	}
	if opts.ResourceLoad && wl.RatePPS > 0 {
		pred.ResourceLoad = make(map[string]float64, len(resources)+len(memCycles))
		for _, r := range resources {
			if r.demand <= 0 || r.servers <= 0 {
				continue
			}
			pred.ResourceLoad[r.key] = wl.RatePPS * r.demand / (r.servers * clockHz)
		}
		for region, cyc := range memCycles {
			if cyc <= 0 {
				continue
			}
			pred.ResourceLoad["mem:"+nic.Mems[region].Name] = wl.RatePPS * cyc / clockHz
		}
	}
	best := math.Inf(1)
	for _, r := range resources {
		if r.demand <= 0 {
			continue
		}
		cap := r.servers * clockHz / r.demand
		if cap < best {
			best = cap
			pred.Bottleneck = r.name
		}
	}
	pred.ThroughputPPS = best

	// Queueing correction at the offered rate: M/G/c waiting time per
	// resource — Erlang-C for the M/M/c wait, scaled by (1+CV²)/2 for the
	// service-time distribution. The cores' CV² comes from the per-class
	// latency spread; engines and accelerators serve near-deterministically.
	queue := 0.0
	if !opts.NoQueueing && wl.RatePPS > 0 {
		// Squared coefficient of variation of per-packet core service time.
		var m1, m2 float64
		for _, c := range pred.PerClass {
			m1 += c.Prob * c.Cycles
			m2 += c.Prob * c.Cycles * c.Cycles
		}
		coreCV2 := 0.0
		if m1 > 0 {
			coreCV2 = m2/(m1*m1) - 1
			if coreCV2 < 0 {
				coreCV2 = 0
			}
		}
		for _, r := range resources {
			if r.demand <= 0 {
				continue
			}
			rho := wl.RatePPS * r.demand / (r.servers * clockHz)
			if rho >= 1 {
				pred.Saturated = true
				rho = 0.99
			}
			cv2 := 0.0
			if r.name == "cores" {
				cv2 = coreCV2
			}
			a := rho * r.servers // offered load in erlangs
			pw := erlangC(int(r.servers), a)
			wmmc := pw * r.demand / (r.servers * (1 - rho))
			queue += wmmc * (1 + cv2) / 2
		}
	}
	pred.QueueCycles = queue

	pred.MeanCycles = meanExec + fixed + queue
	pred.MeanNanos = nic.CyclesToNanos(pred.MeanCycles)
	if wl.RatePPS > 0 {
		pred.PowerWatts = pred.EnergyNJ * wl.RatePPS * 1e-9
	}
	return pred, nil
}

// erlangC returns the Erlang-C probability that an arrival waits in an
// M/M/c queue offered a erlangs, computed with the numerically stable
// recurrence on the Erlang-B blocking probability.
func erlangC(c int, a float64) float64 {
	if c <= 0 || a <= 0 {
		return 0
	}
	if a >= float64(c) {
		return 1
	}
	// Erlang-B recurrence: B(0)=1; B(k) = aB(k-1)/(k + aB(k-1)).
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	rho := a / float64(c)
	return b / (1 - rho + rho*b)
}
