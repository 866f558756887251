package predict

import (
	"context"
	"fmt"
	"sync"

	"clara/internal/budget"
	"clara/internal/cir"
	"clara/internal/ilp"
	"clara/internal/lnic"
	"clara/internal/mapper"
	"clara/internal/obs"
	"clara/internal/symexec"
)

// Pipeline is one compiled NF's analysis pipeline below the source
// compiler: enumerate → annotate → map → predict, the paper's Figure 2. It
// keeps what repeated analyses of the NF share: the behaviour enumeration,
// workload-annotated clones of the dataflow graph, and compiled engines.
// Every stage runs under ctx and its budget inside a panic-isolation
// boundary, and records its wall time into the registry ctx carries.
//
// After NewPipeline returns, Program and Graph are read-only and every
// method is safe to call from multiple goroutines.
type Pipeline struct {
	Program *cir.Program
	// Graph is the dataflow graph before annotation; stages annotate clones.
	Graph *cir.Graph

	// classMu guards the memoized behaviour enumeration (§3.5); classes are
	// read-only once published. A canceled or budget-exceeded enumeration is
	// not memoized, so a retry under a healthier context can still succeed;
	// real failures are latched.
	classMu   sync.Mutex
	classDone bool
	classes   []symexec.Class
	classErr  error

	// annotated caches workload-annotated clones of Graph keyed by the
	// weight vector, so repeated analyses of the same workload (Advise over
	// many targets, co-location's slices, eval grids) share one read-only
	// annotated graph.
	annMu     sync.Mutex
	annotated map[symexec.Weights]*cir.Graph

	// phase1 holds, per target name, the ILP root tableau after simplex
	// phase 1 of the latest map on a target of that name
	// (mapper.MapFrom). A name is admitted by its first map, which records
	// nothing, so a one-off analysis holds no snapshot; from the second map
	// on, each map starts from the slot and leaves its own snapshot there
	// on a miss. Snapshots are immutable and checked against the ILP row by
	// row, so a stale slot only misses.
	p1Mu   sync.Mutex
	phase1 map[string]*ilp.Phase1

	// engines holds compiled engines for Program that no prediction is
	// running. An engine keeps its registers inside itself, so concurrent
	// predictions each take their own; at most cap(engines) wait between
	// calls, and they go away with the Pipeline.
	engines chan *cir.Compiled
}

// annotatedCacheCap bounds the annotated-graph cache; sweeps over unbounded
// workload grids reset it rather than grow without limit.
const annotatedCacheCap = 64

// phase1CacheCap bounds the target names a Pipeline keeps phase-1
// snapshots for; co-location's weight-sized slices each have a name of
// their own, and unbounded weight grids reset the cache.
const phase1CacheCap = 16

// engineCacheCap bounds the compiled engines a Pipeline keeps: one per
// target of a concurrent Advise, and one more.
const engineCacheCap = 4

// NewPipeline extracts prog's dataflow graph and returns its pipeline.
func NewPipeline(prog *cir.Program) (*Pipeline, error) {
	g, err := cir.BuildGraph(prog)
	if err != nil {
		return nil, err
	}
	return &Pipeline{Program: prog, Graph: g, engines: make(chan *cir.Compiled, engineCacheCap)}, nil
}

// Classes returns the program's behaviour classes, running symbolic
// enumeration at most once. The returned slice is shared and must be treated
// as read-only. On cancellation or a tripped budget the typed error's
// Partial field carries the classes enumerated so far, and nothing is
// memoized.
func (p *Pipeline) Classes(ctx context.Context) ([]symexec.Class, error) {
	m := obs.From(ctx)
	p.classMu.Lock()
	defer p.classMu.Unlock()
	if p.classDone {
		m.Counter("clara_enum_cache_hits_total").Inc()
		return p.classes, p.classErr
	}
	m.Counter("clara_enum_cache_misses_total").Inc()
	defer m.StageTimer("enumerate")()
	classes, err := budget.Guard1("enumerate", p.Program.Name, func() ([]symexec.Class, error) {
		return symexec.EnumerateContext(ctx, p.Program)
	})
	if err != nil && budget.Retryable(err) {
		return classes, err
	}
	p.classDone = true
	p.classes, p.classErr = classes, err
	return p.classes, p.classErr
}

// Annotated returns a read-only clone of Graph with edge probabilities
// refined for the workload. Clones are cached per weight vector; Graph
// itself is never mutated, which is what makes the pipeline re-entrant.
func (p *Pipeline) Annotated(ctx context.Context, wl mapper.Workload) (*cir.Graph, error) {
	classes, err := p.Classes(ctx)
	if err != nil {
		return nil, err
	}
	m := obs.From(ctx)
	w := symexec.WeightsFor(wl)
	p.annMu.Lock()
	defer p.annMu.Unlock()
	if g, ok := p.annotated[w]; ok {
		m.Counter("clara_annot_cache_hits_total").Inc()
		return g, nil
	}
	m.Counter("clara_annot_cache_misses_total").Inc()
	defer m.StageTimer("annotate")()
	g := symexec.AnnotatedGraph(p.Graph, classes, w)
	if len(p.annotated) >= annotatedCacheCap {
		p.annotated = nil
	}
	if p.annotated == nil {
		p.annotated = map[symexec.Weights]*cir.Graph{}
	}
	p.annotated[w] = g
	return g, nil
}

// Map lowers the program onto nic for the workload (§3.4) by solving the
// ILP over the workload-annotated graph. From the second map on a target
// name, the solve starts from the slot's phase 1 when the ILP's rows are
// unchanged or differ only in passenger rows (ilp.Phase1); the mapping is
// the same either way.
func (p *Pipeline) Map(ctx context.Context, nic *lnic.LNIC, wl mapper.Workload, h mapper.Hints) (*mapper.Mapping, error) {
	return p.mapWith(ctx, wl, func(g *cir.Graph) (*mapper.Mapping, error) {
		prev, admitted := p.phase1Slot(nic.Name)
		if !admitted {
			return mapper.Map(g, nic, wl, h)
		}
		m, snap, replayed, err := mapper.MapFrom(g, nic, wl, h, prev)
		p.keepPhase1(ctx, nic.Name, prev, snap, replayed)
		return m, err
	})
}

// phase1Slot returns the snapshot kept for target name, and whether the
// name was admitted by an earlier map; it admits the name when not.
func (p *Pipeline) phase1Slot(name string) (*ilp.Phase1, bool) {
	p.p1Mu.Lock()
	defer p.p1Mu.Unlock()
	prev, ok := p.phase1[name]
	if !ok {
		if len(p.phase1) >= phase1CacheCap {
			p.phase1 = nil
		}
		if p.phase1 == nil {
			p.phase1 = map[string]*ilp.Phase1{}
		}
		p.phase1[name] = nil
	}
	return prev, ok
}

// keepPhase1 counts whether a map that started from prev reused it, and
// whether the reuse replayed passenger rows, and keeps snap, when new, as
// target name's snapshot.
func (p *Pipeline) keepPhase1(ctx context.Context, name string, prev, snap *ilp.Phase1, replayed bool) {
	if prev != nil {
		if snap == prev {
			obs.From(ctx).Counter("clara_map_phase1_hits_total").Inc()
			if replayed {
				obs.From(ctx).Counter("clara_map_phase1_replays_total").Inc()
			}
			return
		}
		obs.From(ctx).Counter("clara_map_phase1_misses_total").Inc()
	}
	if snap != nil {
		p.p1Mu.Lock()
		if _, ok := p.phase1[name]; ok {
			p.phase1[name] = snap
		}
		p.p1Mu.Unlock()
	}
}

// Greedy is the no-solver baseline mapping (ablation), priced against the
// same annotated graph as Map so the two objectives compare.
func (p *Pipeline) Greedy(ctx context.Context, nic *lnic.LNIC, wl mapper.Workload, h mapper.Hints) (*mapper.Mapping, error) {
	return p.mapWith(ctx, wl, func(g *cir.Graph) (*mapper.Mapping, error) {
		return mapper.Greedy(g, nic, wl, h)
	})
}

// mapWith runs solve on the graph annotated for wl as the map stage.
func (p *Pipeline) mapWith(ctx context.Context, wl mapper.Workload, solve func(*cir.Graph) (*mapper.Mapping, error)) (*mapper.Mapping, error) {
	g, err := p.Annotated(ctx, wl)
	if err != nil {
		return nil, err
	}
	if err := budget.Canceled(ctx, "map", p.Program.Name); err != nil {
		return nil, err
	}
	defer obs.From(ctx).StageTimer("map")()
	return budget.Guard1("map", p.Program.Name, func() (*mapper.Mapping, error) {
		return solve(g)
	})
}

// PredictMapped produces the performance profile of an existing mapping on
// nic, running the classes on one of the pipeline's compiled engines.
func (p *Pipeline) PredictMapped(ctx context.Context, nic *lnic.LNIC, m *mapper.Mapping, wl mapper.Workload, opts Options) (*Prediction, error) {
	classes, err := p.Classes(ctx)
	if err != nil {
		return nil, err
	}
	if err := budget.Canceled(ctx, "predict", p.Program.Name); err != nil {
		return nil, err
	}
	defer obs.From(ctx).StageTimer("predict")()
	return budget.Guard1("predict", p.Program.Name, func() (*Prediction, error) {
		comp, err := p.engine()
		if err != nil {
			return nil, err
		}
		pred, err := predictCompiled(comp, classes, m, nic, wl, opts)
		p.putEngine(comp)
		return pred, err
	})
}

// Predict maps the program onto nic, then predicts that mapping.
func (p *Pipeline) Predict(ctx context.Context, nic *lnic.LNIC, wl mapper.Workload, h mapper.Hints, opts Options) (*Prediction, error) {
	m, err := p.Map(ctx, nic, wl, h)
	if err != nil {
		return nil, err
	}
	return p.PredictMapped(ctx, nic, m, wl, opts)
}

// engine returns a compiled engine for Program that no one else is running,
// compiling one when none is free. Hand it back with putEngine.
func (p *Pipeline) engine() (*cir.Compiled, error) {
	select {
	case c := <-p.engines:
		return c, nil
	default:
	}
	c, err := cir.Compile(p.Program)
	if err != nil {
		return nil, fmt.Errorf("predict: %w", err)
	}
	return c, nil
}

// putEngine returns c to the free engines, or drops it when enough are
// waiting.
func (p *Pipeline) putEngine(c *cir.Compiled) {
	select {
	case p.engines <- c:
	default:
	}
}
