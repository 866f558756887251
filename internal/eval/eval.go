// Package eval regenerates the paper's evaluation artifacts: Figure 1 (the
// motivation benchmark: 2–4 variants of five NFs on a Netronome SmartNIC),
// Figures 3a/3b/3c (Predicted-vs-Actual latency for LPM, the VNF chain and
// NAT), the in-text prediction-accuracy numbers (LPM 12%, VNF 3%, NAT 7%),
// the §2.1 checksum-placement example, the §3.5 per-class profile example,
// and the interference extension. Each experiment returns structured rows
// so cmd/clara-eval can print tables and bench_test.go can assert shapes.
package eval

import (
	"context"
	"fmt"
	"math"
	"strings"

	"clara/internal/lnic"
	"clara/internal/mapper"
	"clara/internal/microbench"
	"clara/internal/nf"
	"clara/internal/nicsim"
	"clara/internal/obs"
	"clara/internal/partial"
	"clara/internal/predict"
	"clara/internal/runner"
	"clara/internal/workload"
)

// Config bounds experiment cost. Zero values select defaults sized for
// interactive runs; the paper used 1M-packet traces, which the CLI can
// approach with -packets.
type Config struct {
	Packets  int   // packets per simulated trace (default 4000)
	Seed     int64 // trace + table seed (default 11)
	Parallel int   // worker-pool width for grid cells (default GOMAXPROCS)
	// Ctx, when non-nil, bounds every experiment: cancellation aborts grid
	// cells promptly and budget.Limits carried on it are enforced by each
	// cell's enumeration, generation and simulation.
	Ctx context.Context
}

func (c Config) packets() int {
	if c.Packets > 0 {
		return c.Packets
	}
	return 4000
}

func (c Config) seed() int64 {
	if c.Seed != 0 {
		return c.Seed
	}
	return 11
}

func (c Config) parallel() int {
	return runner.Parallelism(c.Parallel)
}

func (c Config) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// compile builds spec's analysis pipeline. Every experiment maps and
// predicts through it, so eval runs the stages clara.NF runs.
func compile(spec nf.Spec) (*predict.Pipeline, error) {
	prog, err := spec.Compile()
	if err != nil {
		return nil, err
	}
	return predict.NewPipeline(prog)
}

// run maps (with hints), simulates, and optionally predicts one
// configuration. It is the shared engine behind the simulated experiments.
type run struct {
	cfg   Config
	nic   *lnic.LNIC
	spec  nf.Spec
	hints mapper.Hints
	prof  workload.Profile
}

type runResult struct {
	NF        *predict.Pipeline
	Mapping   *mapper.Mapping
	Pred      *predict.Prediction
	Sim       *nicsim.Result
	Predicted float64 // mean cycles
	Actual    float64 // mean cycles
}

func (r run) execute(predictToo bool) (*runResult, error) {
	return r.executeContext(r.cfg.ctx(), predictToo)
}

func (r run) executeContext(ctx context.Context, predictToo bool) (*runResult, error) {
	mtr := obs.From(ctx)
	mtr.Counter("clara_eval_cells_total").Add(1)
	defer mtr.StageTimer("eval_cell")()
	p, err := compile(r.spec)
	if err != nil {
		return nil, err
	}
	wl := mapper.FromProfile(r.prof)
	m, err := p.Map(ctx, r.nic, wl, r.hints)
	if err != nil {
		return nil, err
	}
	out := &runResult{NF: p, Mapping: m}
	if predictToo {
		pred, err := p.PredictMapped(ctx, r.nic, m, wl, predict.Options{})
		if err != nil {
			return nil, err
		}
		out.Pred = pred
		out.Predicted = pred.MeanCycles
	}
	tr, err := workload.GenerateContext(ctx, r.prof)
	if err != nil {
		return nil, err
	}
	sim, err := nicsim.NewContext(ctx, nicsim.Config{
		NIC: r.nic, Prog: p.Program, Place: nicsim.PlacementOf(m),
		Preload: r.spec.PreloadEntries, Seed: r.cfg.seed(),
	})
	if err != nil {
		return nil, err
	}
	res, err := sim.RunContext(ctx, tr)
	if err != nil {
		return nil, err
	}
	if res.Errors > 0 {
		return nil, fmt.Errorf("eval: %d simulation errors for %s", res.Errors, r.spec.Name)
	}
	out.Sim = res
	out.Actual = res.MeanLatency()
	return out, nil
}

func (c Config) baseProfile() workload.Profile {
	p := workload.DefaultProfile()
	p.Packets = c.packets()
	p.Seed = c.seed()
	return p
}

// ---------------------------------------------------------------------------
// E1 — Figure 1: performance variability of five NFs.

// VariantRow is one bar of Figure 1.
type VariantRow struct {
	NF         string
	Variant    string
	Cycles     float64
	Normalized float64 // against the fastest variant of the same NF
}

// Fig1 reproduces Figure 1: for each of NAT, DPI, FW, LPM and HH, benchmark
// 2–4 implementations of the same core logic (or workloads) on the
// Netronome target and normalize latencies against the fastest version.
func Fig1(cfg Config) ([]VariantRow, error) {
	type variant struct {
		nf, name string
		spec     nf.Spec
		hints    mapper.Hints
		mutate   func(*workload.Profile)
	}
	pin := func(region string) mapper.Hints {
		return mapper.Hints{PinState: map[string]string{"conns": region}, DisableFlowCache: true}
	}
	payload := func(n int) func(*workload.Profile) {
		return func(p *workload.Profile) { p.PayloadBytes = n }
	}
	rate := func(pps float64) func(*workload.Profile) {
		return func(p *workload.Profile) { p.RatePPS = pps }
	}
	variants := []variant{
		// "One NAT variant uses the checksum accelerator and the other does not."
		{"NAT", "cksum-accel", nf.NAT(true), mapper.Hints{}, payload(1000)},
		{"NAT", "cksum-sw", nf.NAT(true), mapper.Hints{DisableChecksumAccel: true}, payload(1000)},
		// "DPI variants handle different packet sizes."
		{"DPI", "64B", nf.DPI(), mapper.Hints{}, payload(64)},
		{"DPI", "512B", nf.DPI(), mapper.Hints{}, payload(512)},
		{"DPI", "1400B", nf.DPI(), mapper.Hints{}, payload(1400)},
		// "Firewall variants store flow state in different memory locations
		// and have varying flow distributions."
		{"FW", "state-ctm", nf.Firewall(8000), pin("ctm"), nil},
		{"FW", "state-imem", nf.Firewall(8000), pin("imem"), nil},
		{"FW", "state-emem", nf.Firewall(8000), pin("emem"), nil},
		{"FW", "emem-zipf", nf.Firewall(8000), pin("emem"), func(p *workload.Profile) {
			p.FlowDist = workload.DistZipf
			p.ZipfS = 1.3
		}},
		// "LPM has different numbers of match/action rules and optionally
		// uses the flow cache."
		// §2.1: the slow variants do "software match/action processing in
		// DRAM"; the fast one fronts the same DRAM table with the flow cache.
		{"LPM", "5k-flowcache", nf.LPM(5000), mapper.Hints{ForceFlowCache: true,
			PinState: map[string]string{"routes": "emem"}}, nil},
		{"LPM", "5k-rules", nf.LPM(5000), mapper.Hints{DisableFlowCache: true,
			PinState: map[string]string{"routes": "emem"}}, nil},
		{"LPM", "30k-rules", nf.LPM(30000), mapper.Hints{DisableFlowCache: true,
			PinState: map[string]string{"routes": "emem"}}, nil},
		// "Heavy hitter detection has varying packet rates."
		{"HH", "10kpps", nf.HeavyHitter(1000), mapper.Hints{}, rate(10_000)},
		{"HH", "60kpps", nf.HeavyHitter(1000), mapper.Hints{}, rate(60_000)},
		{"HH", "240kpps", nf.HeavyHitter(1000), mapper.Hints{}, rate(240_000)},
	}
	rows, err := runner.Map(cfg.ctx(), cfg.parallel(), len(variants),
		func(cctx context.Context, i int) (VariantRow, error) {
			v := variants[i]
			prof := cfg.baseProfile()
			if v.mutate != nil {
				v.mutate(&prof)
			}
			r := run{cfg: cfg, nic: lnic.Netronome(), spec: v.spec, hints: v.hints, prof: prof}
			res, err := r.executeContext(cctx, false)
			if err != nil {
				return VariantRow{}, fmt.Errorf("fig1 %s/%s: %w", v.nf, v.name, err)
			}
			return VariantRow{NF: v.nf, Variant: v.name, Cycles: res.Actual}, nil
		})
	if err != nil {
		return nil, err
	}
	// Normalize per NF against its fastest variant.
	fastest := map[string]float64{}
	for _, r := range rows {
		if f, ok := fastest[r.NF]; !ok || r.Cycles < f {
			fastest[r.NF] = r.Cycles
		}
	}
	for i := range rows {
		rows[i].Normalized = rows[i].Cycles / fastest[rows[i].NF]
	}
	return rows, nil
}

// FormatFig1 renders the Figure 1 table.
func FormatFig1(rows []VariantRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1: performance variability of five NFs (Netronome)\n")
	fmt.Fprintf(&b, "%-5s %-14s %12s %12s\n", "NF", "variant", "cycles", "normalized")
	maxNorm := 0.0
	for _, r := range rows {
		fmt.Fprintf(&b, "%-5s %-14s %12.0f %11.1fx\n", r.NF, r.Variant, r.Cycles, r.Normalized)
		if r.Normalized > maxNorm {
			maxNorm = r.Normalized
		}
	}
	fmt.Fprintf(&b, "max spread: %.1fx (paper reports up to 13.8x)\n", maxNorm)
	return b.String()
}

// ---------------------------------------------------------------------------
// E2–E4 — Figure 3: Predicted vs Actual latency sweeps.

// SweepPoint is one x-position of a Figure 3 panel.
type SweepPoint struct {
	X         int // table entries (3a) or payload bytes (3b/3c)
	Predicted float64
	Actual    float64
	RelErr    float64
}

func sweepPoint(ctx context.Context, r run, x int) (SweepPoint, error) {
	res, err := r.executeContext(ctx, true)
	if err != nil {
		return SweepPoint{}, err
	}
	p := SweepPoint{X: x, Predicted: res.Predicted, Actual: res.Actual}
	if res.Actual > 0 {
		p.RelErr = math.Abs(res.Predicted-res.Actual) / res.Actual
	}
	return p, nil
}

// Fig3a sweeps LPM table entries 5k–30k (Predicted vs Actual, K cycles).
// The paper's LPM exercises software match/action lookups, so the flow
// cache is disabled, matching its latency-grows-with-entries behaviour.
func Fig3a(cfg Config) ([]SweepPoint, error) {
	return runner.Map(cfg.ctx(), cfg.parallel(), 6,
		func(cctx context.Context, i int) (SweepPoint, error) {
			entries := 5000 + i*5000
			// The paper's LPM does software match/action processing in DRAM
			// (§2.1), so the rule table is pinned to the EMEM.
			r := run{
				cfg: cfg, nic: lnic.Netronome(), spec: nf.LPM(entries),
				hints: mapper.Hints{DisableFlowCache: true,
					PinState: map[string]string{"routes": "emem"}},
				prof: cfg.baseProfile(),
			}
			p, err := sweepPoint(cctx, r, entries)
			if err != nil {
				return SweepPoint{}, fmt.Errorf("fig3a entries=%d: %w", entries, err)
			}
			return p, nil
		})
}

// Fig3b sweeps the VNF chain over payload sizes 200–1400 B.
func Fig3b(cfg Config) ([]SweepPoint, error) {
	return runner.Map(cfg.ctx(), cfg.parallel(), 7,
		func(cctx context.Context, i int) (SweepPoint, error) {
			payload := 200 + i*200
			prof := cfg.baseProfile()
			prof.PayloadBytes = payload
			r := run{cfg: cfg, nic: lnic.Netronome(), spec: nf.VNFChain(), prof: prof}
			p, err := sweepPoint(cctx, r, payload)
			if err != nil {
				return SweepPoint{}, fmt.Errorf("fig3b payload=%d: %w", payload, err)
			}
			return p, nil
		})
}

// Fig3c sweeps NAT over payload sizes 200–1400 B (cycles).
func Fig3c(cfg Config) ([]SweepPoint, error) {
	return runner.Map(cfg.ctx(), cfg.parallel(), 7,
		func(cctx context.Context, i int) (SweepPoint, error) {
			payload := 200 + i*200
			prof := cfg.baseProfile()
			prof.PayloadBytes = payload
			prof.TCPFraction = 1.0
			r := run{cfg: cfg, nic: lnic.Netronome(), spec: nf.NAT(true), prof: prof}
			p, err := sweepPoint(cctx, r, payload)
			if err != nil {
				return SweepPoint{}, fmt.Errorf("fig3c payload=%d: %w", payload, err)
			}
			return p, nil
		})
}

// FormatSweep renders one Figure 3 panel.
func FormatSweep(title, xlabel string, points []SweepPoint, kilo bool) string {
	var b strings.Builder
	unit := "cycles"
	div := 1.0
	if kilo {
		unit = "K cycles"
		div = 1000
	}
	fmt.Fprintf(&b, "%s\n%-10s %14s %14s %8s\n", title, xlabel, "predicted ("+unit+")", "actual ("+unit+")", "err")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10d %14.1f %14.1f %7.1f%%\n", p.X, p.Predicted/div, p.Actual/div, p.RelErr*100)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// E5 — §4 prediction accuracy.

// AccuracyRow is one NF's aggregate prediction error.
type AccuracyRow struct {
	NF       string
	MeanErr  float64
	PaperErr float64
}

// Accuracy aggregates mean relative error across the Figure 3 sweeps,
// reproducing the paper's 12% / 3% / 7% table.
func Accuracy(cfg Config) ([]AccuracyRow, error) {
	mean := func(points []SweepPoint) float64 {
		if len(points) == 0 {
			return 0
		}
		s := 0.0
		for _, p := range points {
			s += p.RelErr
		}
		return s / float64(len(points))
	}
	// The three panels run concurrently; each panel's internal sweep shares
	// the same pool width, so total in-flight work stays near cfg.Parallel².
	// Panel counts are small enough that this oversubscription is benign.
	panels := []struct {
		nf       string
		sweep    func(Config) ([]SweepPoint, error)
		paperErr float64
	}{
		{"LPM", Fig3a, 0.12},
		{"VNF", Fig3b, 0.03},
		{"NAT", Fig3c, 0.07},
	}
	return runner.Map(cfg.ctx(), cfg.parallel(), len(panels),
		func(_ context.Context, i int) (AccuracyRow, error) {
			points, err := panels[i].sweep(cfg)
			if err != nil {
				return AccuracyRow{}, err
			}
			return AccuracyRow{NF: panels[i].nf, MeanErr: mean(points), PaperErr: panels[i].paperErr}, nil
		})
}

// FormatAccuracy renders the accuracy table.
func FormatAccuracy(rows []AccuracyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Prediction accuracy (E5, paper §4)\n%-6s %12s %12s\n", "NF", "measured", "paper")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %11.1f%% %11.1f%%\n", r.NF, r.MeanErr*100, r.PaperErr*100)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// E7 — §2.1 checksum placement gap.

// ChecksumGap reports the accelerator-vs-software checksum costs for
// 1000-byte packets.
type ChecksumGap struct {
	AccelCycles float64
	SWCycles    float64
	ExtraCycles float64
}

// Cksum measures E7 with end-to-end NAT runs differing only in checksum
// placement.
func Cksum(cfg Config) (*ChecksumGap, error) {
	prof := cfg.baseProfile()
	prof.PayloadBytes = 1000
	prof.TCPFraction = 1.0
	hw, err := run{cfg: cfg, nic: lnic.Netronome(), spec: nf.NAT(true), prof: prof}.execute(false)
	if err != nil {
		return nil, err
	}
	sw, err := run{cfg: cfg, nic: lnic.Netronome(), spec: nf.NAT(true),
		hints: mapper.Hints{DisableChecksumAccel: true}, prof: prof}.execute(false)
	if err != nil {
		return nil, err
	}
	return &ChecksumGap{
		AccelCycles: hw.Actual,
		SWCycles:    sw.Actual,
		ExtraCycles: sw.Actual - hw.Actual,
	}, nil
}

// ---------------------------------------------------------------------------
// E8 — §3.5 per-class profile.

// ClassRow is one packet class of the per-class profile.
type ClassRow struct {
	Class     string
	Prob      float64
	Predicted float64
	Verdict   uint64
}

// Classes produces the firewall's per-class latency profile: SYN packets
// pay for state setup, established packets ride the fast path.
func Classes(cfg Config) ([]ClassRow, error) {
	prof := cfg.baseProfile()
	prof.TCPFraction = 1.0
	r := run{cfg: cfg, nic: lnic.Netronome(), spec: nf.Firewall(65536), prof: prof}
	res, err := r.execute(true)
	if err != nil {
		return nil, err
	}
	var rows []ClassRow
	for _, c := range res.Pred.PerClass {
		rows = append(rows, ClassRow{Class: c.Name, Prob: c.Prob, Predicted: c.Cycles, Verdict: c.Verdict})
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// E9 — interference via LNIC slicing.

// InterferenceRow compares an NF solo versus co-resident.
type InterferenceRow struct {
	NF             string
	SoloCycles     float64
	SharedCycles   float64
	SoloThroughput float64
	SharedPPS      float64
}

// Interference predicts FW and DPI solo on the whole NIC and co-located
// with equal weights, each offering half the aggregate rate. The shared
// predictions are PredictColocated's: half-NIC slices plus the analytic
// contention slowdown (no fitted model).
func Interference(cfg Config) ([]InterferenceRow, error) {
	ctx := cfg.ctx()
	nic := lnic.Netronome()
	wl := mapper.FromProfile(cfg.baseProfile())
	half := wl
	half.RatePPS /= 2
	specs := []nf.Spec{nf.Firewall(65536), nf.DPI()}
	solos := make([]*predict.Prediction, len(specs))
	tenants := make([]predict.ColocTenant, len(specs))
	for i, s := range specs {
		p, err := compile(s)
		if err != nil {
			return nil, err
		}
		if solos[i], err = p.Predict(ctx, nic, wl, mapper.Hints{}, predict.Options{}); err != nil {
			return nil, err
		}
		tenants[i] = predict.ColocTenant{NF: p, Weight: 1, Workload: half}
	}
	shared, err := predict.PredictColocated(ctx, tenants, nic, nil, predict.Options{})
	if err != nil {
		return nil, err
	}
	rows := make([]InterferenceRow, len(specs))
	for i := range specs {
		rows[i] = InterferenceRow{
			NF:             tenants[i].NF.Program.Name,
			SoloCycles:     solos[i].MeanCycles,
			SharedCycles:   shared[i].MeanCycles,
			SoloThroughput: solos[i].ThroughputPPS,
			SharedPPS:      shared[i].ThroughputPPS,
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// E10 — multi-tenant co-location: contention-aware vs naive prediction.

// ColocateRow compares one co-located tenant's predicted mean latency under
// the contention-aware model (weighted slices plus fitted slowdown curves)
// and the naive sum-of-solo model (each tenant predicted alone on the full
// NIC) against the multi-tenant simulator's ground truth.
type ColocateRow struct {
	NF       string
	Actual   float64 // simulated co-located mean cycles
	Aware    float64 // PredictColocated mean cycles
	Naive    float64 // solo full-NIC prediction mean cycles
	AwareErr float64
	NaiveErr float64
}

// Colocate co-locates the firewall and NAT with equal weights on one
// Netronome and compares contention-aware against naive prediction. Both
// tenants front their flow state with the shared flow cache, and the offered
// rate is high enough that its single engine saturates under the combined
// load — which is exactly what the naive model cannot see.
func Colocate(cfg Config) ([]ColocateRow, error) {
	ctx := cfg.ctx()
	nic := lnic.Netronome()
	specs := []nf.Spec{nf.Firewall(65536), nf.NAT(true)}
	prof := cfg.baseProfile()
	prof.RatePPS = 8_000_000
	prof.TCPFraction = 1
	wl := mapper.FromProfile(prof)

	ccfg := nicsim.ColocConfig{NIC: nic, Seed: cfg.seed()}
	tenants := make([]predict.ColocTenant, len(specs))
	naive := make([]*predict.Prediction, len(specs))
	for i, s := range specs {
		p, err := compile(s)
		if err != nil {
			return nil, err
		}
		m, err := p.Map(ctx, nic, wl, mapper.Hints{})
		if err != nil {
			return nil, err
		}
		// The naive model: the tenant alone on the full NIC, under the
		// mapping the simulator runs.
		if naive[i], err = p.PredictMapped(ctx, nic, m, wl, predict.Options{}); err != nil {
			return nil, err
		}
		tp := prof
		tp.Seed = cfg.seed() + int64(i) // decorrelate tenant traffic
		tr, err := workload.GenerateContext(ctx, tp)
		if err != nil {
			return nil, err
		}
		ccfg.Tenants = append(ccfg.Tenants, nicsim.Tenant{
			Prog: p.Program, Place: nicsim.PlacementOf(m),
			Preload: s.PreloadEntries, Weight: 1, Trace: tr,
		})
		tenants[i] = predict.ColocTenant{NF: p, Weight: 1, Workload: wl}
	}
	res, err := nicsim.RunColocatedContext(ctx, ccfg, nicsim.ShardOpts{})
	if err != nil {
		return nil, err
	}
	model, err := microbench.FitContentionContext(ctx, nic)
	if err != nil {
		return nil, err
	}
	aware, err := predict.PredictColocated(ctx, tenants, nic, model, predict.Options{})
	if err != nil {
		return nil, err
	}
	rows := make([]ColocateRow, len(specs))
	for i := range specs {
		if res[i].Errors > 0 {
			return nil, fmt.Errorf("eval: %d co-located simulation errors for %s", res[i].Errors, ccfg.Tenants[i].Prog.Name)
		}
		actual := res[i].MeanLatency()
		rows[i] = ColocateRow{
			NF:       ccfg.Tenants[i].Prog.Name,
			Actual:   actual,
			Aware:    aware[i].MeanCycles,
			Naive:    naive[i].MeanCycles,
			AwareErr: relativeErr(aware[i].MeanCycles, actual),
			NaiveErr: relativeErr(naive[i].MeanCycles, actual),
		}
	}
	return rows, nil
}

func relativeErr(pred, actual float64) float64 {
	if actual == 0 {
		return 0
	}
	return math.Abs(pred-actual) / actual
}

// FormatColocate renders the co-location comparison with the MAE summary
// line the acceptance gate reads.
func FormatColocate(rows []ColocateRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Multi-tenant co-location: contention-aware vs naive prediction (simulator ground truth):\n")
	fmt.Fprintf(&b, "  %-10s %12s %12s %12s %10s %10s\n", "NF", "actual cyc", "aware cyc", "naive cyc", "aware err", "naive err")
	var sumAware, sumNaive float64
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-10s %12.0f %12.0f %12.0f %9.1f%% %9.1f%%\n",
			r.NF, r.Actual, r.Aware, r.Naive, r.AwareErr*100, r.NaiveErr*100)
		sumAware += r.AwareErr
		sumNaive += r.NaiveErr
	}
	if n := float64(len(rows)); n > 0 && sumNaive > 0 {
		maeA, maeN := sumAware/n, sumNaive/n
		fmt.Fprintf(&b, "  MAE: contention-aware %.1f%% vs naive %.1f%% (%.0f%% reduction)\n",
			maeA*100, maeN*100, (1-maeA/maeN)*100)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md design-choice benchmarks).

// AblationRow compares the solver against the greedy baseline for one NF.
type AblationRow struct {
	NF           string
	ILPCycles    float64 // expected cost under the ILP mapping
	GreedyCycles float64 // expected cost under greedy first-fit
}

// ILPvsGreedy quantifies what the solver buys over first-fit mapping.
func ILPvsGreedy(cfg Config) ([]AblationRow, error) {
	nic := lnic.Netronome()
	wl := mapper.FromProfile(cfg.baseProfile())
	specs := []nf.Spec{nf.LPM(20000), nf.NAT(true), nf.Firewall(65536), nf.VNFChain()}
	return runner.Map(cfg.ctx(), cfg.parallel(), len(specs),
		func(cctx context.Context, i int) (AblationRow, error) {
			p, err := compile(specs[i])
			if err != nil {
				return AblationRow{}, err
			}
			opt, err := p.Map(cctx, nic, wl, mapper.Hints{})
			if err != nil {
				return AblationRow{}, err
			}
			gr, err := p.Greedy(cctx, nic, wl, mapper.Hints{})
			if err != nil {
				return AblationRow{}, err
			}
			return AblationRow{NF: p.Program.Name, ILPCycles: opt.CostCycles, GreedyCycles: gr.CostCycles}, nil
		})
}

// QueueAblation compares queue-aware and queue-free prediction error at a
// high packet rate (design choice 4 in DESIGN.md).
type QueueAblation struct {
	RatePPS       float64
	Actual        float64
	WithQueueing  float64
	QueueFreeOnly float64
}

// QueueAware runs the DPI NF at a high rate and reports prediction error
// with and without the Θ queueing correction, both on the mapping the
// simulator runs.
func QueueAware(cfg Config) (*QueueAblation, error) {
	prof := cfg.baseProfile()
	prof.RatePPS = 8_000_000 // ~90% core utilization for 1000B DPI
	prof.PayloadBytes = 1000
	prof.Poisson = true // stochastic arrivals so queueing actually forms
	r := run{cfg: cfg, nic: lnic.Netronome(), spec: nf.DPI(), prof: prof}
	res, err := r.execute(true)
	if err != nil {
		return nil, err
	}
	noQ, err := res.NF.PredictMapped(r.cfg.ctx(), r.nic, res.Mapping, mapper.FromProfile(prof), predict.Options{NoQueueing: true})
	if err != nil {
		return nil, err
	}
	return &QueueAblation{
		RatePPS:       prof.RatePPS,
		Actual:        res.Actual,
		WithQueueing:  res.Predicted,
		QueueFreeOnly: noQ.MeanCycles,
	}, nil
}

// ---------------------------------------------------------------------------
// Partial offloading (§6 future-work extension).

// PartialRow summarizes one NF's cut sweep.
type PartialRow struct {
	NF            string
	BestCut       int // NIC-prefix size of the latency-optimal cut
	TotalCuts     int
	FullNICNanos  float64
	FullHostNanos float64
	BestNanos     float64
	EnergyBestCut int
}

// Partial sweeps host/NIC partitions for a representative NF set.
func Partial(cfg Config) ([]PartialRow, error) {
	nic := lnic.Netronome()
	host := lnic.HostX86()
	wl := mapper.FromProfile(cfg.baseProfile())
	specs := []nf.Spec{nf.Firewall(65536), nf.DPI(), nf.NAT(true), nf.VNFChain()}
	return runner.Map(cfg.ctx(), cfg.parallel(), len(specs),
		func(cctx context.Context, i int) (PartialRow, error) {
			p, err := compile(specs[i])
			if err != nil {
				return PartialRow{}, err
			}
			g, err := p.Annotated(cctx, wl)
			if err != nil {
				return PartialRow{}, err
			}
			an, err := partial.AnalyzeContext(cctx, g, nic, host, wl, partial.DefaultPCIe(), 0)
			if err != nil {
				return PartialRow{}, err
			}
			return PartialRow{
				NF:            p.Program.Name,
				BestCut:       an.Best.Index,
				TotalCuts:     len(an.Cuts) - 1,
				FullNICNanos:  an.FullNIC.TotalNanos,
				FullHostNanos: an.FullHost.TotalNanos,
				BestNanos:     an.Best.TotalNanos,
				EnergyBestCut: an.EnergyBest.Index,
			}, nil
		})
}
