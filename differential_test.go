package clara

import (
	"context"
	"reflect"
	"testing"

	"clara/internal/nf"
)

// TestAdviseParallelDifferential checks that -parallel is invisible in the
// output: for every corpus NF, target advice computed sequentially and on an
// 8-wide pool is byte-identical. Each width gets its own compiled NF so the
// comparison exercises the full pipeline, not a shared memoized result.
func TestAdviseParallelDifferential(t *testing.T) {
	wl, err := ParseWorkload("")
	if err != nil {
		t.Fatal(err)
	}
	all := nf.All()
	for _, name := range nf.Names() {
		spec := all[name]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			seq, err := adviseFresh(spec.Source, wl, 1)
			if err != nil {
				t.Fatal(err)
			}
			par, err := adviseFresh(spec.Source, wl, 8)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("advice differs between -parallel 1 and -parallel 8:\nseq: %+v\npar: %+v", seq, par)
			}
			if s, p := FormatAdvice(name, seq), FormatAdvice(name, par); s != p {
				t.Errorf("rendered advice not byte-identical:\n--- parallel 1 ---\n%s--- parallel 8 ---\n%s", s, p)
			}
		})
	}
}

func adviseFresh(src string, wl Workload, width int) ([]Advice, error) {
	nfo, err := CompileNF(src)
	if err != nil {
		return nil, err
	}
	return AdviseContext(context.Background(), nfo, wl, width)
}

// TestAnalyzePartialParallelDifferential is the same property for the
// partial-offload cut sweep: the analysis (and its rendering) must not
// depend on the worker-pool width.
func TestAnalyzePartialParallelDifferential(t *testing.T) {
	wl, err := ParseWorkload("")
	if err != nil {
		t.Fatal(err)
	}
	target, err := NewTarget("netronome")
	if err != nil {
		t.Fatal(err)
	}
	all := nf.All()
	for _, name := range nf.Names() {
		spec := all[name]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			analyze := func(width int) (string, error) {
				nfo, err := CompileNF(spec.Source)
				if err != nil {
					return "", err
				}
				an, err := AnalyzePartialContext(context.Background(), nfo, target, wl, DefaultPCIe(), width)
				if err != nil {
					return "", err
				}
				return an.String(), nil
			}
			seq, err := analyze(1)
			if err != nil {
				t.Fatal(err)
			}
			par, err := analyze(8)
			if err != nil {
				t.Fatal(err)
			}
			if seq != par {
				t.Errorf("partial analysis not byte-identical between widths:\n--- parallel 1 ---\n%s--- parallel 8 ---\n%s", seq, par)
			}
		})
	}
}
