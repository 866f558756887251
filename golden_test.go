package clara

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"clara/internal/eval"
	"clara/internal/mapper"
	"clara/internal/nf"
	"clara/internal/workload"
)

// -update regenerates the golden files instead of comparing against them:
//
//	go test -run TestGolden -update
var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/golden")

// checkGolden compares got against testdata/golden/<name>, or rewrites the
// file when -update is set.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run TestGolden -update`): %v", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s.\nRe-run with -update if the change is intentional.\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// goldenEvalConfig is small enough for CI but still exercises every
// experiment; the seed pins the traces, and index-ordered worker pools make
// the output independent of parallelism.
func goldenEvalConfig() eval.Config {
	return eval.Config{Packets: 600, Seed: 11}
}

// TestGoldenEval locks down the full `clara-eval -experiment all` report:
// every figure, table, ablation and sweep the paper reproduction prints.
// Numeric drift here means a model change, intentional or not.
func TestGoldenEval(t *testing.T) {
	if testing.Short() {
		t.Skip("golden eval runs every experiment; skipped in -short")
	}
	out, err := eval.RenderAll(goldenEvalConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "eval_all.txt", out)
}

// TestEvalAblationUsesProductionMapping holds the ILP-vs-greedy ablation to
// the mappings production solves: each row's costs must equal NF.Map's and
// NF.MapGreedy's on the same NF and workload, so the table prices the
// enumerated class weights, not a uniform branch split.
func TestEvalAblationUsesProductionMapping(t *testing.T) {
	cfg := goldenEvalConfig()
	rows, err := eval.ILPvsGreedy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	specs := []nf.Spec{nf.LPM(20000), nf.NAT(true), nf.Firewall(65536), nf.VNFChain()}
	if len(rows) != len(specs) {
		t.Fatalf("ablation rows = %d, want %d", len(rows), len(specs))
	}
	prof := workload.DefaultProfile()
	prof.Packets, prof.Seed = cfg.Packets, cfg.Seed
	wl := mapper.FromProfile(prof)
	target, err := NewTarget("netronome")
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		n, err := CompileNF(spec.Source)
		if err != nil {
			t.Fatal(err)
		}
		if rows[i].NF != n.Name() {
			t.Fatalf("row %d is %s, want %s", i, rows[i].NF, n.Name())
		}
		opt, err := n.Map(target, wl, Hints{})
		if err != nil {
			t.Fatal(err)
		}
		gr, err := n.MapGreedy(target, wl, Hints{})
		if err != nil {
			t.Fatal(err)
		}
		if rows[i].ILPCycles != opt.CostCycles || rows[i].GreedyCycles != gr.CostCycles {
			t.Errorf("%s: eval ILP %v greedy %v, production Map %v MapGreedy %v",
				n.Name(), rows[i].ILPCycles, rows[i].GreedyCycles, opt.CostCycles, gr.CostCycles)
		}
	}
}

// TestGoldenAdvise locks down `clara -advise examples/firewall.nf` with the
// default workload: the full target ranking, formatted exactly as the CLI
// prints it.
func TestGoldenAdvise(t *testing.T) {
	nfo, err := LoadNF(filepath.Join("examples", "firewall.nf"))
	if err != nil {
		t.Fatal(err)
	}
	wl, err := ParseWorkload("")
	if err != nil {
		t.Fatal(err)
	}
	advice, err := Advise(nfo, wl)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "advise_firewall.txt", FormatAdvice(nfo.Name(), advice))
}
