package clara

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"clara/internal/lnic"
	"clara/internal/nf"
)

// newSharedNF compiles a fresh firewall NF for concurrency tests.
func newSharedNF(t testing.TB) (*NF, *Target, Workload) {
	t.Helper()
	nfo, err := CompileNF(fwSrc)
	if err != nil {
		t.Fatal(err)
	}
	target, err := NewTarget("netronome")
	if err != nil {
		t.Fatal(err)
	}
	wl, err := ParseWorkload("flows=2000,rate=120000,tcp=1.0,size=400")
	if err != nil {
		t.Fatal(err)
	}
	return nfo, target, wl
}

// TestConcurrentAnalysisMatchesSequential runs Advise, Predict and
// AnalyzePartial on the same *NF from many goroutines and asserts every
// result is identical to a sequential baseline computed on a separate NF.
// Run under -race this also proves the analysis pipeline is re-entrant:
// no call mutates nf.Graph or any other shared structure.
func TestConcurrentAnalysisMatchesSequential(t *testing.T) {
	base, target, wl := newSharedNF(t)
	wantAdvice, err := AdviseParallel(base, wl, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantPred, err := base.Predict(target, wl, Hints{})
	if err != nil {
		t.Fatal(err)
	}
	wantPartial, err := AnalyzePartialParallel(base, target, wl, DefaultPCIe(), 1)
	if err != nil {
		t.Fatal(err)
	}

	shared, _, _ := newSharedNF(t)
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			advice, err := Advise(shared, wl)
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(advice, wantAdvice) {
				t.Errorf("concurrent Advise diverged:\n got %+v\nwant %+v", advice, wantAdvice)
			}
			pred, err := shared.Predict(target, wl, Hints{})
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(pred, wantPred) {
				t.Errorf("concurrent Predict diverged:\n got %+v\nwant %+v", pred, wantPred)
			}
			an, err := AnalyzePartial(shared, target, wl, DefaultPCIe())
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(an, wantPartial) {
				t.Errorf("concurrent AnalyzePartial diverged")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestParallelWidthInvariance pins the tentpole's determinism contract:
// any pool width produces byte-identical results to the sequential path.
func TestParallelWidthInvariance(t *testing.T) {
	nfo, target, wl := newSharedNF(t)
	seqAdvice, err := AdviseParallel(nfo, wl, 1)
	if err != nil {
		t.Fatal(err)
	}
	seqPartial, err := AnalyzePartialParallel(nfo, target, wl, DefaultPCIe(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{0, 2, 7, 32} {
		advice, err := AdviseParallel(nfo, wl, width)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(advice, seqAdvice) {
			t.Errorf("width %d: Advise diverged from sequential", width)
		}
		an, err := AnalyzePartialParallel(nfo, target, wl, DefaultPCIe(), width)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(an, seqPartial) {
			t.Errorf("width %d: AnalyzePartial diverged from sequential", width)
		}
	}
}

// TestSharedTargetsStayReadOnly checks the contract that lets Advise share
// one instance of each built-in target across calls and goroutines: after
// concurrent Advise calls over every corpus NF, each shared target still
// equals a freshly built profile. NewTarget keeps handing out copies the
// caller owns: mutating one changes no Advise ranking.
func TestSharedTargetsStayReadOnly(t *testing.T) {
	wl, err := ParseWorkload("flows=2000,size=600,rate=400000,tcp=1")
	if err != nil {
		t.Fatal(err)
	}
	all := nf.All()
	var wg sync.WaitGroup
	errs := make(chan error, len(all))
	for _, name := range nf.Names() {
		nfo, err := CompileNF(all[name].Source)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 2; k++ {
				if _, err := AdviseContext(context.Background(), nfo, wl, 0); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, bt := range builtinTargets() {
		if fresh := lnic.Profiles()[bt.name](); !reflect.DeepEqual(bt.target, fresh) {
			t.Errorf("shared target %s differs from a fresh profile after concurrent Advise", bt.name)
		}
	}

	nfo, err := CompileNF(all["vnfchain"].Source)
	if err != nil {
		t.Fatal(err)
	}
	before, err := Advise(nfo, wl)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewTarget("netronome")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTarget("netronome")
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("two NewTarget calls returned the same target")
	}
	for _, bt := range builtinTargets() {
		if bt.target == a || bt.target == b {
			t.Fatal("NewTarget returned the target Advise shares")
		}
	}
	a.ClockGHz *= 4
	a.Mems[0].LoadCycles *= 100
	a.Units[0].Threads = 1
	a.Hubs = nil
	after, err := Advise(nfo, wl)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Errorf("mutating a NewTarget copy changed the Advise ranking:\n%v\n%v", before, after)
	}
}
