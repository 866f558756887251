package clara

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// spinnerSrc loops forever per packet: behaviour enumeration and simulation
// of it must trip the step budgets rather than hang.
const spinnerSrc = `nf spinner {
	handler(pkt) {
		if (!parse(ipv4)) { return pass; }
		var i = 1;
		while (i) { i = i + 1; }
		return pass;
	}
}`

func testWorkload(t *testing.T) Workload {
	t.Helper()
	wl, err := ParseWorkload("packets=2000,rate=60000,flows=200,tcp=1.0,size=300")
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

func TestCancelMidPredict(t *testing.T) {
	nfo, err := CompileNF(fwSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := nfo.PredictContext(ctx, mustTarget(t), testWorkload(t), Hints{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("PredictContext(canceled) = %v, want context.Canceled", err)
	}
	// The canceled enumeration must not be memoized: the same NF analyzed
	// again with a live context succeeds.
	if _, err := nfo.Predict(mustTarget(t), testWorkload(t), Hints{}); err != nil {
		t.Fatalf("Predict after canceled attempt = %v", err)
	}
}

func TestCancelMidAdvise(t *testing.T) {
	nfo, err := CompileNF(fwSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AdviseContext(ctx, nfo, testWorkload(t), 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("AdviseContext(canceled) = %v, want context.Canceled", err)
	}
	// And with a live context the full ranking still works afterwards.
	advice, err := AdviseContext(context.Background(), nfo, testWorkload(t), 2)
	if err != nil || len(advice) == 0 {
		t.Fatalf("AdviseContext after cancel = %v, %v", advice, err)
	}
}

func TestCancelMidSimRun(t *testing.T) {
	nfo, err := CompileNF(fwSrc)
	if err != nil {
		t.Fatal(err)
	}
	wl := testWorkload(t)
	target := mustTarget(t)
	m, err := nfo.Map(target, wl, Hints{})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := ParseTrafficProfile("packets=20000,rate=60000,flows=500,tcp=1.0,size=300")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := GenerateTrace(prof)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = nfo.MeasureContext(ctx, target, m, tr, 7, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("MeasureContext(canceled) = %v, want context.Canceled", err)
	}
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v is not a *CanceledError", err)
	}
	if ce.Stage != "simulate" {
		t.Errorf("stage = %q, want simulate", ce.Stage)
	}
	if _, ok := ce.Partial.(*Measurement); !ok {
		t.Errorf("Partial is %T, want *Measurement", ce.Partial)
	}
}

// TestCancelMeasureStream: a streamed measurement under a context that
// ended before the run simulates nothing, so it must fail with the
// cancellation rather than report an empty Measurement.
func TestCancelMeasureStream(t *testing.T) {
	nfo, err := CompileNF(fwSrc)
	if err != nil {
		t.Fatal(err)
	}
	target := mustTarget(t)
	m, err := nfo.Map(target, testWorkload(t), Hints{})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := ParseTrafficProfile("packets=500,rate=60000,flows=50,tcp=1.0,size=300")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := GenerateTrace(prof)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	src, err := NewTraceReader(&buf, "canceled")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = nfo.MeasureStreamContext(ctx, target, m, src, 7, MeasureOptions{ShardWindow: 64})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("MeasureStreamContext(canceled) = %v, want context.Canceled", err)
	}
	var ce *CanceledError
	if !errors.As(err, &ce) || ce.Stage != "simulate" {
		t.Fatalf("error %v is not a simulate-stage *CanceledError", err)
	}
	if p, ok := ce.Partial.(*Measurement); !ok || len(p.Packets) != 0 {
		t.Errorf("Partial = %#v, want an empty *Measurement", ce.Partial)
	}
}

// TestConcurrentCancellation exercises cancellation racing real analysis
// work across goroutines; run with -race. Each worker either completes or
// observes a wrapped context error — never a hang or a panic.
func TestConcurrentCancellation(t *testing.T) {
	nfo, err := CompileNF(fwSrc)
	if err != nil {
		t.Fatal(err)
	}
	wl := testWorkload(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%4)*200*time.Microsecond)
			defer cancel()
			_, err := AdviseContext(ctx, nfo, wl, 2)
			if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("worker error is neither success nor cancellation: %v", err)
			}
		}()
	}
	wg.Wait()
}

func TestBudgetExceededUnboundedNF(t *testing.T) {
	nfo, err := CompileNF(spinnerSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctx := WithBudget(context.Background(), Budget{SymExecSteps: 10_000})
	start := time.Now()
	_, err = nfo.ClassesContext(ctx)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("ClassesContext(unbounded NF) = %v, want ErrBudgetExceeded", err)
	}
	var ee *BudgetExceededError
	if !errors.As(err, &ee) {
		t.Fatalf("error %v is not a *BudgetExceededError", err)
	}
	if ee.Resource != "symexec-steps" || ee.Stage != "enumerate" || ee.NF != "spinner" {
		t.Errorf("trip site wrong: %+v", ee)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("budget trip took %v; the whole point is a prompt return", elapsed)
	}
	// Not memoized: a looser budget afterwards still trips (the NF really is
	// unbounded) but proves the retry path re-runs enumeration.
	if _, err := nfo.ClassesContext(ctx); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("second attempt = %v, want ErrBudgetExceeded again", err)
	}
}

func TestBudgetExceededPartialResult(t *testing.T) {
	nfo, err := CompileNF(fwSrc)
	if err != nil {
		t.Fatal(err)
	}
	// One lattice point is allowed, then the path budget trips; the partial
	// result carries the classes enumerated so far.
	ctx := WithBudget(context.Background(), Budget{SymExecPaths: 1})
	_, err = nfo.ClassesContext(ctx)
	var ee *BudgetExceededError
	if !errors.As(err, &ee) || ee.Resource != "symexec-paths" {
		t.Fatalf("ClassesContext(paths=1) = %v, want symexec-paths trip", err)
	}
	if partial, ok := ee.Partial.([]Class); !ok || len(partial) == 0 {
		t.Errorf("Partial = %T %v, want non-empty []Class", ee.Partial, ee.Partial)
	}
	// The failed-budget run must not poison the cache.
	classes, err := nfo.Classes()
	if err != nil || len(classes) == 0 {
		t.Fatalf("Classes after budget trip = %v, %v", classes, err)
	}
}

func TestBudgetFlowEntriesCapsSimulatorAllocation(t *testing.T) {
	hugeSrc := `nf hog {
	state tbl : map<13, 8>[16777216];

	handler(pkt) {
		if (!parse(ipv4)) { return pass; }
		var k = flow_key();
		map_lookup(tbl, k);
		return pass;
	}
}`
	nfo, err := CompileNF(hugeSrc)
	if err != nil {
		t.Fatal(err)
	}
	wl := testWorkload(t)
	target := mustTarget(t)
	m, err := nfo.Map(target, wl, Hints{})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := ParseTrafficProfile("packets=100,rate=60000,flows=10,tcp=1.0,size=300")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := GenerateTrace(prof)
	if err != nil {
		t.Fatal(err)
	}
	ctx := WithBudget(context.Background(), Budget{FlowEntries: 1024})
	_, err = nfo.MeasureContext(ctx, target, m, tr, 7, nil)
	var ee *BudgetExceededError
	if !errors.As(err, &ee) || ee.Resource != "flow-entries" {
		t.Fatalf("MeasureContext(16M-entry table, 1k budget) = %v, want flow-entries trip", err)
	}
}

func TestTimeoutTripsDeadline(t *testing.T) {
	nfo, err := CompileNF(spinnerSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err = nfo.ClassesContext(ctx)
	// The spinner either exhausts the default step budget or the deadline
	// fires first; both must surface as typed errors, never a hang.
	if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("ClassesContext(5ms deadline) = %v", err)
	}
}

func mustTarget(t *testing.T) *Target {
	t.Helper()
	target, err := NewTarget("netronome")
	if err != nil {
		t.Fatal(err)
	}
	return target
}
