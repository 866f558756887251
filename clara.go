// Package clara provides performance clarity for SmartNIC offloading, a Go
// reproduction of "Clara: Performance Clarity for SmartNIC Offloading"
// (HotNets 2020). Clara analyzes an unported network function in its
// original form and predicts its performance when offloaded to a SmartNIC
// target, before any porting happens.
//
// The workflow mirrors the paper's Figure 2:
//
//  1. Compile the NF source into the Clara IR (the LLVM front-end role),
//     with framework API calls substituted by virtual calls.
//  2. Pick a parameterized logical SmartNIC target (Netronome Agilio CX,
//     an ARM-SoC-style NIC, or a pipeline-ASIC-style NIC).
//  3. Map the NF's dataflow graph onto the target by solving the Π/Γ/Θ
//     integer linear program — emulating a compiler plus hand-tuning.
//  4. Predict latency per packet class and idealized throughput for a
//     workload profile (a pcap trace or an abstract description).
//  5. Optionally Measure the same mapping on the bundled cycle-level
//     SmartNIC simulator, the stand-in for real hardware.
//
// A minimal session:
//
//	ctx := context.Background()
//	nf, _ := clara.CompileNF(src)
//	target, _ := clara.NewTarget("netronome")
//	wl, _ := clara.ParseWorkload("flows=10000,rate=60000,size=300")
//	pred, _ := nf.PredictContext(ctx, target, wl, clara.Hints{})
//	fmt.Println(pred)
//
// Each job has one entry, and it takes a context: MapContext,
// PredictContext, PredictMappedContext, ClassesContext,
// MeasureOptionsContext, MicrobenchContext, AdviseContext and so on. The
// context carries cancellation, deadlines, a Budget and a Metrics registry.
package clara

import (
	"context"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"

	"clara/internal/budget"
	"clara/internal/cir"
	"clara/internal/lnic"
	"clara/internal/mapper"
	"clara/internal/microbench"
	"clara/internal/nfc"
	"clara/internal/nicsim"
	"clara/internal/obs"
	"clara/internal/partial"
	"clara/internal/predict"
	"clara/internal/runner"
	"clara/internal/symexec"
	"clara/internal/workload"
)

// Re-exported workflow types. The aliases make the full APIs of the
// underlying components part of the public surface.
type (
	// Target is a parameterized logical SmartNIC (§3.1–3.2).
	Target = lnic.LNIC
	// Hints constrain the mapper to emulate specific porting strategies.
	Hints = mapper.Hints
	// Mapping is the solved NF-to-hardware lowering (§3.4).
	Mapping = mapper.Mapping
	// Workload carries traffic expectations (§3.5).
	Workload = mapper.Workload
	// TrafficProfile describes synthetic traffic for trace generation.
	TrafficProfile = workload.Profile
	// Trace is a replayable packet sequence.
	Trace = workload.Trace
	// Prediction is Clara's output performance profile.
	Prediction = predict.Prediction
	// PredictOptions tunes workload-unobservable rates.
	PredictOptions = predict.Options
	// Measurement is a simulator run's result (the "Actual" side).
	Measurement = nicsim.Result
	// Breakdown splits simulated cycles by where they were spent.
	Breakdown = nicsim.Breakdown
	// Faults configures simulator fault injection (outages, degradation,
	// queue overflow, memory faults, packet corruption).
	Faults = nicsim.Faults
	// FaultReport summarizes fault-injection effects observed during a run.
	FaultReport = nicsim.FaultReport
	// Placement carries the mapping decisions the simulator honors.
	Placement = nicsim.Placement
	// Class is one enumerated NF behaviour (§3.5).
	Class = symexec.Class
	// BenchReport is a microbenchmark-recovered parameter sheet (§3.2).
	BenchReport = microbench.Report
	// PartialAnalysis is a partial-offloading cut sweep (§6 extension).
	PartialAnalysis = partial.Analysis
	// PCIe parameterizes the host/NIC interconnect for partial offloading.
	PCIe = partial.PCIe
	// ContentionModel holds per-resource slowdown curves for multi-tenant
	// co-location, fit by FitContention and consumed by PredictColocated.
	ContentionModel = lnic.ContentionModel
)

// Budget and its error types bound the analysis pipeline. Attach a Budget to
// a context with WithBudget and pass that context to any ...Context method;
// wall-clock limits come from the context itself (context.WithTimeout).
type (
	// Budget caps the resources one analysis may consume (steps, paths,
	// simulated events, table and DPI memory). The zero value applies only
	// the built-in safety defaults.
	Budget = budget.Limits
	// BudgetExceededError reports which budget dimension tripped; Partial
	// carries whatever was computed before the trip.
	BudgetExceededError = budget.ExceededError
	// CanceledError wraps a context cancellation with the pipeline stage
	// that observed it; errors.Is(err, context.Canceled) keeps working.
	CanceledError = budget.CanceledError
	// PanicError is an internal invariant violation converted into a
	// structured error naming the stage and NF.
	PanicError = budget.PanicError
)

// ErrBudgetExceeded matches every *BudgetExceededError via errors.Is.
var ErrBudgetExceeded = budget.Exceeded

// WithBudget returns a context carrying the budget; every ...Context method
// downstream enforces it.
func WithBudget(ctx context.Context, b Budget) context.Context { return budget.With(ctx, b) }

// ParseBudget decodes a compact budget spec such as
// "symsteps=200000,simsteps=1e6,events=100000,flows=100000,dpi=4096"
// (the -budget flag syntax shared by the CLIs).
func ParseBudget(spec string) (Budget, error) { return budget.Parse(spec) }

// ParseFaults decodes a fault-injection spec such as
// "outage=crypto,degrade=checksum:4,queuecap=8,memfault=emem:0.001,corrupt=0.02,seed=7"
// (the clara-sim -faults flag syntax). An empty spec yields nil (no faults).
func ParseFaults(spec string) (*Faults, error) { return nicsim.ParseFaults(spec) }

// Observability types. Attach a *Metrics to the analysis context with
// WithMetrics and every ...Context method downstream records per-stage wall
// times (clara_stage_nanos{stage=...}), enumeration/annotation cache hits
// and misses, symbolic-execution step and path counts, simulator event
// counts and budget-consumption gauges into it. A context without a registry
// pays only a nil check per stage — the disabled path is allocation-free.
type (
	// Metrics is a registry of named counters, gauges and log-bucket
	// histograms with Prometheus text exposition (WritePrometheus).
	Metrics = obs.Metrics
	// BudgetUsage accumulates consumed analysis resources; attach with
	// WithBudgetUsage and snapshot against the limits afterwards.
	BudgetUsage = budget.Usage
	// Timeline is a simulator packet-hop trace (enable via
	// MeasureOptions.Timeline); exportable as JSON or Chrome trace_event.
	Timeline = nicsim.Timeline
)

// NewMetrics returns an empty, enabled metrics registry.
func NewMetrics() *Metrics { return obs.New() }

// WithMetrics returns a context carrying the registry.
func WithMetrics(ctx context.Context, m *Metrics) context.Context { return obs.With(ctx, m) }

// MetricsFrom extracts the registry carried by ctx (nil = disabled).
func MetricsFrom(ctx context.Context) *Metrics { return obs.From(ctx) }

// WithBudgetUsage returns a context carrying the consumption accumulator.
func WithBudgetUsage(ctx context.Context, u *BudgetUsage) context.Context {
	return budget.WithUsage(ctx, u)
}

// NF is a compiled, analyzed network function.
//
// Concurrency contract: after CompileNF returns, Source, Program and Graph
// are immutable and every analysis entry (MapContext, PredictContext,
// PredictMappedContext, ClassesContext, MeasureOptionsContext,
// AdviseContext, AnalyzePartialContext) is safe to call from multiple
// goroutines. Behaviour enumeration is memoized on first use; workload
// annotation never mutates Graph — each distinct workload gets its own
// annotated clone, cached per weight vector. Preload is the one mutable
// field: populate it before sharing the NF across goroutines.
type NF struct {
	Source  string
	Program *cir.Program
	Graph   *cir.Graph
	// Preload requests pre-installed table entries for measurement (rule
	// tables); keyed by state name.
	Preload map[string]int

	// pipe owns Program's memoized enumeration, annotated graphs and
	// compiled engines, and runs every analysis stage.
	pipe *predict.Pipeline
}

// CompileNF lowers NF-dialect source into Clara IR and extracts its
// dataflow graph.
func CompileNF(source string) (*NF, error) {
	return budget.Guard1("compile", "", func() (*NF, error) {
		prog, err := nfc.Compile(source)
		if err != nil {
			return nil, err
		}
		p, err := predict.NewPipeline(prog)
		if err != nil {
			return nil, err
		}
		return &NF{Source: source, Program: prog, Graph: p.Graph, Preload: map[string]int{}, pipe: p}, nil
	})
}

// LoadNF reads and compiles an NF source file.
func LoadNF(path string) (*NF, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return CompileNF(string(data))
}

// Name returns the NF's declared name.
func (nf *NF) Name() string { return nf.Program.Name }

// Targets lists the built-in SmartNIC profiles.
func Targets() []string { return lnic.ProfileNames() }

// NewTarget instantiates a built-in SmartNIC profile by name. Each call
// returns a fresh copy the caller owns.
func NewTarget(name string) (*Target, error) {
	mk, ok := lnic.Profiles()[name]
	if !ok {
		return nil, fmt.Errorf("clara: unknown target %q (have %v)", name, Targets())
	}
	return mk(), nil
}

// BuiltinTarget returns the shared instance of a built-in SmartNIC profile
// (lnic.Shared), the one AdviseContext uses. AdviseContext shares them
// across calls and goroutines, so nothing may write to them: the mapper and
// the predictor only read a target. NewTarget returns a copy the caller
// owns.
func BuiltinTarget(name string) (*Target, error) {
	for i, n := range Targets() {
		if n == name {
			return lnic.Shared()[i], nil
		}
	}
	return nil, fmt.Errorf("clara: unknown target %q (have %v)", name, Targets())
}

// ParseWorkload parses an abstract workload spec such as
// "packets=20000,rate=60000,flows=10000,tcp=0.8,size=300" into expectations.
func ParseWorkload(spec string) (Workload, error) {
	p, err := workload.ParseProfile(spec)
	if err != nil {
		return Workload{}, err
	}
	return mapper.FromProfile(p), nil
}

// ParseTrafficProfile parses the same spec into a generator profile.
func ParseTrafficProfile(spec string) (TrafficProfile, error) {
	return workload.ParseProfile(spec)
}

// WorkloadFromPcapContext derives expectations from a recorded trace.
// Ingestion honors ctx's cancellation and its SimEvents budget, and hostile
// record headers produce errors rather than allocations.
func WorkloadFromPcapContext(ctx context.Context, r io.Reader) (Workload, *Trace, error) {
	tr, err := workload.ReadPcapContext(ctx, r, "pcap")
	if err != nil {
		return Workload{}, nil, err
	}
	return mapper.FromStats(tr.Stats()), tr, nil
}

// GenerateTraceContext synthesizes a packet trace from a profile, bounded by
// ctx and its budget.
func GenerateTraceContext(ctx context.Context, p TrafficProfile) (*Trace, error) {
	return workload.GenerateContext(ctx, p)
}

// MapContext lowers the NF onto the target for the workload (§3.4),
// bounded by ctx and its budget; the solve runs inside a panic-isolation
// boundary. The dataflow graph's edge probabilities are first refined by
// behaviour enumeration; the refinement happens on a per-workload clone, so
// MapContext is safe to call concurrently on one NF.
func (nf *NF) MapContext(ctx context.Context, t *Target, wl Workload, h Hints) (*Mapping, error) {
	return nf.pipe.Map(ctx, t, wl, h)
}

// PredictMappedContext produces the performance profile for an existing
// mapping, reusing the NF's memoized behaviour enumeration. It is bounded
// by ctx and its budget; the prediction runs inside a panic-isolation
// boundary.
func (nf *NF) PredictMappedContext(ctx context.Context, t *Target, m *Mapping, wl Workload, opts PredictOptions) (*Prediction, error) {
	return nf.pipe.PredictMapped(ctx, t, m, wl, opts)
}

// Predict is PredictContext without a context.
//
// Deprecated: use PredictContext. Only the benchmark module (perfbench)
// still calls this shim; it goes when that module moves to PredictContext.
func (nf *NF) Predict(t *Target, wl Workload, h Hints) (*Prediction, error) {
	return nf.PredictContext(context.Background(), t, wl, h)
}

// PredictContext runs the full workflow, map then predict, bounded by ctx
// and its budget: cancellation or a tripped budget aborts whichever stage
// (enumerate, map, predict) is running with a typed error.
func (nf *NF) PredictContext(ctx context.Context, t *Target, wl Workload, h Hints) (*Prediction, error) {
	return nf.pipe.Predict(ctx, t, wl, h, PredictOptions{})
}

// ClassesContext enumerates the NF's distinct behaviours (§3.5), bounded by
// ctx and its budget. The enumeration runs once per NF and is cached; the
// returned slice is shared — treat it as read-only. On cancellation or a
// tripped budget the typed error's Partial field carries the classes
// enumerated so far, and the enumeration is not memoized (a retry with a
// looser budget can complete it).
func (nf *NF) ClassesContext(ctx context.Context) ([]Class, error) { return nf.pipe.Classes(ctx) }

// PlacementOf converts a mapping into the simulator's placement form.
func PlacementOf(m *Mapping) Placement { return nicsim.PlacementOf(m) }

// MeasureOptions tunes one simulator run beyond the mapping itself.
type MeasureOptions struct {
	// Faults injects hardware faults (nil = healthy run).
	Faults *Faults
	// Timeline records every packet's hops (ingress, dispatch, NPU,
	// accelerators, memory, egress) with cycle timestamps and queue depths
	// into Measurement.Timeline.
	Timeline bool
	// Shards is the simulator's parallel worker count; values < 1 select
	// GOMAXPROCS. It is pure scheduling: on a fixed seed the Measurement is
	// the same at every count. Like ShardWindow, it applies to solo runs
	// only: a co-located run is always one window.
	Shards int
	// ShardWindow is the packets-per-shard window, the one option that
	// shapes the result: simulator state restarts cold at every window
	// boundary. Values < 1 select the whole trace for an in-memory run (one
	// window, the classic single-threaded loop) and
	// nicsim.DefaultShardWindow (16384) for a streamed one. A smaller
	// window lets Shards run windows in parallel.
	ShardWindow int
}

// MeasureOptionsContext executes the NF under the mapping on the
// cycle-level simulator against a concrete trace — the "Actual" side of the
// paper's validation — with per-run options: fault injection, per-packet
// timeline tracing and the shard window. Cancellation and the
// SimSteps/SimEvents budgets return a typed error whose Partial field holds
// the Measurement covering the packets that did run.
func (nf *NF) MeasureOptionsContext(ctx context.Context, t *Target, m *Mapping, tr *Trace, seed int64, opts MeasureOptions) (*Measurement, error) {
	defer obs.From(ctx).StageTimer("simulate")()
	return budget.Guard1("simulate", nf.Program.Name, func() (*Measurement, error) {
		cfg, sopts := nf.simConfig(t, m, seed, opts)
		return nicsim.RunShardedContext(ctx, cfg, tr, sopts)
	})
}

// simConfig is the simulator configuration and shard options of one run.
func (nf *NF) simConfig(t *Target, m *Mapping, seed int64, opts MeasureOptions) (nicsim.Config, nicsim.ShardOpts) {
	cfg := nicsim.Config{
		NIC: t, Prog: nf.Program, Place: PlacementOf(m),
		Preload: nf.Preload, Seed: seed, Faults: opts.Faults,
		Timeline: opts.Timeline,
	}
	return cfg, nicsim.ShardOpts{Workers: opts.Shards, Window: opts.ShardWindow}
}

// MeasureStreamContext is MeasureOptionsContext over a streamed trace: the
// sharded engine pulls bounded windows from src (a NewTraceReader over a
// pcap, or any nicsim.WindowSource) and simulates them as they arrive, so
// peak ingestion memory is set by the shard window rather than the capture
// length. Results match an in-memory run of the same packets with the same
// window size exactly.
func (nf *NF) MeasureStreamContext(ctx context.Context, t *Target, m *Mapping, src nicsim.WindowSource, seed int64, opts MeasureOptions) (*Measurement, error) {
	defer obs.From(ctx).StageTimer("simulate")()
	return budget.Guard1("simulate", nf.Program.Name, func() (*Measurement, error) {
		cfg, sopts := nf.simConfig(t, m, seed, opts)
		return nicsim.RunShardedStreamContext(ctx, cfg, src, sopts)
	})
}

// NewTraceReader streams a pcap capture window by window for
// MeasureStreamContext; see workload.TraceReader for the memory contract.
func NewTraceReader(r io.Reader, name string) (*workload.TraceReader, error) {
	return workload.NewTraceReader(r, name)
}

// MicrobenchContext recovers the target's performance parameters by running
// the §3.2 probe suite on the simulator. Probes run concurrently on parallel
// workers (values < 1 select GOMAXPROCS, 1 forces sequential probing);
// cancellation of ctx stops in-flight probes promptly with a typed
// CanceledError.
func MicrobenchContext(ctx context.Context, t *Target, parallel int) (*BenchReport, error) {
	defer obs.From(ctx).StageTimer("microbench")()
	return budget.Guard1("microbench", t.Name, func() (*BenchReport, error) {
		return microbench.RunContext(ctx, t, parallel)
	})
}

// FitContention fits the target's multi-tenant slowdown curves afresh.
//
// Deprecated: use PredictColocatedContext, which fits the model it needs
// and memoizes it per built-in target. Only the benchmark module
// (perfbench) still calls this shim; it goes when that module stops
// timing a fit of its own.
func FitContention(t *Target) (*ContentionModel, error) {
	return fitContention(context.Background(), t)
}

// fitContention fits the target's multi-tenant slowdown curves by running
// microbenchmark probes under synthetic contender load on the co-located
// simulator, bounded by ctx and its budget. The fit is deterministic per
// target.
func fitContention(ctx context.Context, t *Target) (*ContentionModel, error) {
	defer obs.From(ctx).StageTimer("microbench")()
	return budget.Guard1("microbench", t.Name, func() (*ContentionModel, error) {
		return microbench.FitContentionContext(ctx, t)
	})
}

// contModels memoizes one fitted contention model per built-in profile:
// the fit runs a dozen short simulations and is deterministic, so every
// PredictColocated call on an unmodified built-in target can share it. A
// target that differs from the built-in profile of its name (a modified
// NewTarget copy) is fitted on every call.
var (
	contModelMu sync.Mutex
	contModels  = map[string]*ContentionModel{}
)

func contentionModelFor(ctx context.Context, t *Target) (*ContentionModel, error) {
	builtin := false
	for _, s := range lnic.Shared() {
		if s.Name == t.Name {
			builtin = reflect.DeepEqual(s, t)
			break
		}
	}
	if !builtin {
		return fitContention(ctx, t)
	}
	contModelMu.Lock()
	if m, ok := contModels[t.Name]; ok {
		contModelMu.Unlock()
		return m, nil
	}
	contModelMu.Unlock()
	m, err := fitContention(ctx, t)
	if err != nil {
		return nil, err
	}
	contModelMu.Lock()
	contModels[t.Name] = m
	contModelMu.Unlock()
	return m, nil
}

// PredictColocated is PredictColocatedContext without a context.
//
// Deprecated: use PredictColocatedContext. Only the benchmark module
// (perfbench) still calls this shim; it goes when that module moves to
// PredictColocatedContext.
func PredictColocated(nfs []*NF, weights []float64, t *Target, wls []Workload) ([]*Prediction, error) {
	return PredictColocatedContext(context.Background(), nfs, weights, t, wls)
}

// PredictColocatedContext predicts each NF's performance profile when the
// NFs are co-located on one target with weighted resource shares — cores
// partitioned by weight, accelerators/hubs/memories shared with
// contention-aware service inflation (the fitted ContentionModel). nfs,
// weights and wls run in parallel: weights[i] ≤ 0 deactivates nfs[i] (its
// slot returns nil), and wls[i] is that tenant's own traffic. With a single
// active tenant the result is byte-identical to that NF's solo
// PredictContext on the full target. It is bounded by ctx and its budget;
// the contention-model fit (memoized per built-in target) and every
// per-tenant pipeline stage honor cancellation with typed errors.
func PredictColocatedContext(ctx context.Context, nfs []*NF, weights []float64, t *Target, wls []Workload) ([]*Prediction, error) {
	if len(nfs) != len(weights) || len(nfs) != len(wls) {
		return nil, fmt.Errorf("clara: co-location wants parallel slices, got %d NFs, %d weights, %d workloads",
			len(nfs), len(weights), len(wls))
	}
	tenants := make([]predict.ColocTenant, len(nfs))
	names := make([]string, 0, len(nfs))
	for i, nf := range nfs {
		tenants[i] = predict.ColocTenant{Weight: weights[i], Workload: wls[i]}
		if weights[i] <= 0 {
			continue
		}
		if nf == nil {
			return nil, fmt.Errorf("clara: co-located tenant %d is nil", i)
		}
		tenants[i].NF = nf.pipe
		names = append(names, nf.Name())
	}
	// The fitted model only matters once resources are actually shared;
	// the single-tenant path degenerates to the solo pipeline without it.
	var model *ContentionModel
	if len(names) > 1 {
		var err error
		if model, err = contentionModelFor(ctx, t); err != nil {
			return nil, err
		}
	}
	defer obs.From(ctx).StageTimer("colocate")()
	return budget.Guard1("predict", strings.Join(names, "+"), func() ([]*Prediction, error) {
		return predict.PredictColocated(ctx, tenants, t, model, PredictOptions{})
	})
}

// MeasureColocatedContext runs the NFs concurrently on the multi-tenant
// simulator — the ground-truth side of co-location analysis — bounded by
// ctx and its budget, with per-run options (fault injection and
// timelines). Each active NF is mapped onto the full target (the simulator
// partitions threads by weight at run time) and replays its own trace;
// results align with the input slices, with empty Measurements for
// deactivated tenants. The whole merged event sequence runs as one window,
// so opts.Shards and opts.ShardWindow do not apply.
func MeasureColocatedContext(ctx context.Context, nfs []*NF, weights []float64, t *Target, traces []*Trace, seed int64, opts MeasureOptions) ([]*Measurement, error) {
	if len(nfs) != len(weights) || len(nfs) != len(traces) {
		return nil, fmt.Errorf("clara: co-location wants parallel slices, got %d NFs, %d weights, %d traces",
			len(nfs), len(weights), len(traces))
	}
	cfg := nicsim.ColocConfig{NIC: t, Seed: seed, Faults: opts.Faults, Timeline: opts.Timeline}
	names := make([]string, 0, len(nfs))
	for i, nf := range nfs {
		ten := nicsim.Tenant{Weight: weights[i]}
		if weights[i] > 0 {
			if nf == nil || traces[i] == nil {
				return nil, fmt.Errorf("clara: co-located tenant %d lacks an NF or trace", i)
			}
			m, err := nf.MapContext(ctx, t, mapper.FromStats(traces[i].Stats()), Hints{})
			if err != nil {
				return nil, err
			}
			ten.Prog = nf.Program
			ten.Place = PlacementOf(m)
			ten.Preload = nf.Preload
			ten.Trace = traces[i]
			names = append(names, nf.Name())
		}
		cfg.Tenants = append(cfg.Tenants, ten)
	}
	defer obs.From(ctx).StageTimer("simulate")()
	return budget.Guard1("simulate", strings.Join(names, "+"), func() ([]*Measurement, error) {
		return nicsim.RunColocatedContext(ctx, cfg, nicsim.ShardOpts{})
	})
}

// HostTarget returns the server-CPU model used as the host side of partial
// offloading (a Xeon E5-2643-class machine, the paper's testbed).
func HostTarget() *Target { return lnic.HostX86() }

// DefaultPCIe models a PCIe 3.0 x8 host/NIC interconnect.
func DefaultPCIe() PCIe { return partial.DefaultPCIe() }

// AnalyzePartialContext sweeps every NIC-prefix/host-suffix partition of
// the NF (§6's partial-offloading extension), reporting latency, throughput
// and energy per cut plus the latency- and energy-optimal choices. Cuts are
// evaluated on the shared worker pool at width parallel (values < 1 select
// GOMAXPROCS, 1 forces the sequential sweep); results are identical at any
// width. The sweep stops promptly on cancellation of ctx with a typed
// CanceledError.
func AnalyzePartialContext(ctx context.Context, nf *NF, t *Target, wl Workload, pcie PCIe, parallel int) (*PartialAnalysis, error) {
	g, err := nf.pipe.Annotated(ctx, wl)
	if err != nil {
		return nil, err
	}
	defer obs.From(ctx).StageTimer("partial")()
	return budget.Guard1("partial", nf.Program.Name, func() (*PartialAnalysis, error) {
		return partial.AnalyzeContext(ctx, g, t, lnic.HostX86(), wl, pcie, parallel)
	})
}

// Advice ranks targets for an NF and workload.
type Advice struct {
	Target     string
	Feasible   bool
	Reason     string // why infeasible, when Feasible is false
	MeanCycles float64
	MeanNanos  float64
	Throughput float64
}

// AdviseParallel is AdviseContext without a context.
//
// Deprecated: use AdviseContext. Only the benchmark module (perfbench)
// still calls this shim; it goes when that module moves to AdviseContext.
func AdviseParallel(nf *NF, wl Workload, parallel int) ([]Advice, error) {
	return AdviseContext(context.Background(), nf, wl, parallel)
}

// AdviseContext predicts the NF on every built-in target and ranks the
// feasible ones by latency — the "which SmartNIC model is best suited for
// her workloads" use case from §1. Targets are evaluated concurrently on
// the shared worker pool at width parallel (values < 1 select GOMAXPROCS, 1
// forces the sequential loop). The ranking is identical at any width:
// per-target results land in registry order before the final sort, and an
// infeasible prediction is data, not an error — only cancellation of ctx
// and tripped budgets abort the sweep, with a typed error.
func AdviseContext(ctx context.Context, nf *NF, wl Workload, parallel int) ([]Advice, error) {
	defer obs.From(ctx).StageTimer("advise")()
	// Warm the shared memoizations once so the workers don't duplicate the
	// enumeration and annotation work.
	if _, err := nf.pipe.Annotated(ctx, wl); err != nil {
		return nil, err
	}
	names, targets := Targets(), lnic.Shared()
	out, err := runner.Map(ctx, parallel, len(targets),
		func(cctx context.Context, i int) (Advice, error) {
			name, t := names[i], targets[i]
			pred, err := nf.PredictContext(cctx, t, wl, Hints{})
			if err != nil {
				if budget.Retryable(err) {
					return Advice{}, err
				}
				return Advice{Target: name, Feasible: false, Reason: err.Error()}, nil
			}
			return Advice{
				Target:     name,
				Feasible:   true,
				MeanCycles: pred.MeanCycles,
				MeanNanos:  pred.MeanNanos,
				Throughput: pred.ThroughputPPS,
			}, nil
		})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Feasible != out[j].Feasible {
			return out[i].Feasible
		}
		return out[i].MeanNanos < out[j].MeanNanos
	})
	return out, nil
}

// FormatAdvice renders an AdviseContext ranking exactly as cmd/clara prints it —
// shared so golden tests pin the CLI output without shelling out.
func FormatAdvice(nfName string, advice []Advice) string {
	var b strings.Builder
	fmt.Fprintf(&b, "target ranking for %s:\n", nfName)
	for _, a := range advice {
		if a.Feasible {
			fmt.Fprintf(&b, "  %-16s %10.0f ns/pkt  %12.0f pps\n", a.Target, a.MeanNanos, a.Throughput)
		} else {
			fmt.Fprintf(&b, "  %-16s infeasible: %s\n", a.Target, a.Reason)
		}
	}
	return b.String()
}
