package jobs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clara/internal/budget"
)

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, e *Engine, id string) Snapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s, ok := e.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared before reaching a terminal state", id)
		}
		if s.State.Terminal() {
			return s
		}
		time.Sleep(time.Millisecond)
	}
	s, _ := e.Get(id)
	t.Fatalf("job %s stuck in state %s after 5s", id, s.State)
	return Snapshot{}
}

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.Backoff == 0 {
		cfg.Backoff = time.Millisecond
	}
	if cfg.MaxBackoff == 0 {
		cfg.MaxBackoff = 4 * time.Millisecond
	}
	e := NewEngine(context.Background(), cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = e.Drain(ctx)
	})
	return e
}

func TestEngineRunsJobToDone(t *testing.T) {
	e := newTestEngine(t, Config{})
	id, err := e.Submit("predict", "acme", func(ctx context.Context) ([]byte, error) {
		return []byte(`{"ok":true}`), nil
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	s := waitTerminal(t, e, id)
	if s.State != StateDone || s.Attempts != 1 || string(s.Result) != `{"ok":true}` {
		t.Fatalf("got state=%s attempts=%d result=%q", s.State, s.Attempts, s.Result)
	}
}

func TestEngineRetriesTransientThenSucceeds(t *testing.T) {
	e := newTestEngine(t, Config{MaxAttempts: 3})
	var calls int
	var mu sync.Mutex
	id, err := e.Submit("advise", "", func(ctx context.Context) ([]byte, error) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n < 3 {
			return nil, &budget.TransientError{Err: errors.New("flaky")}
		}
		return []byte("ok"), nil
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	s := waitTerminal(t, e, id)
	if s.State != StateDone || s.Attempts != 3 {
		t.Fatalf("got state=%s attempts=%d, want done after 3 attempts", s.State, s.Attempts)
	}
}

func TestEnginePermanentErrorFailsFast(t *testing.T) {
	e := newTestEngine(t, Config{MaxAttempts: 5})
	id, err := e.Submit("advise", "", func(ctx context.Context) ([]byte, error) {
		return nil, errors.New("bad request")
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	s := waitTerminal(t, e, id)
	if s.State != StateFailed || s.Attempts != 1 {
		t.Fatalf("got state=%s attempts=%d, want failed after 1 attempt", s.State, s.Attempts)
	}
	if !strings.Contains(s.Error, "bad request") {
		t.Fatalf("error %q does not surface the cause", s.Error)
	}
}

func TestEnginePanicsRetryThenFail(t *testing.T) {
	e := newTestEngine(t, Config{MaxAttempts: 3})
	id, err := e.Submit("predict", "", func(ctx context.Context) ([]byte, error) {
		panic("invariant violated")
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	s := waitTerminal(t, e, id)
	if s.State != StateFailed || s.Attempts != 3 {
		t.Fatalf("got state=%s attempts=%d, want failed after 3 attempts", s.State, s.Attempts)
	}
	if !strings.Contains(s.Error, "internal error") {
		t.Fatalf("error %q should be the recovered panic", s.Error)
	}
}

func TestEngineExhaustedRetriesFail(t *testing.T) {
	e := newTestEngine(t, Config{MaxAttempts: 2})
	id, err := e.Submit("advise", "", func(ctx context.Context) ([]byte, error) {
		return nil, &budget.TransientError{Err: errors.New("always flaky")}
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	s := waitTerminal(t, e, id)
	if s.State != StateFailed || s.Attempts != 2 {
		t.Fatalf("got state=%s attempts=%d, want failed after MaxAttempts=2", s.State, s.Attempts)
	}
}

func TestEngineCancelQueued(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 8})
	gate := make(chan struct{})
	blocker, _ := e.Submit("advise", "", func(ctx context.Context) ([]byte, error) {
		<-gate
		return nil, nil
	})
	id, err := e.Submit("advise", "", func(ctx context.Context) ([]byte, error) {
		t.Error("canceled queued job must not run")
		return nil, nil
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if !e.Cancel(id) {
		t.Fatal("cancel of a queued job returned false")
	}
	if s, _ := e.Get(id); s.State != StateCanceled || s.Attempts != 0 {
		t.Fatalf("got state=%s attempts=%d, want canceled before any attempt", s.State, s.Attempts)
	}
	close(gate)
	waitTerminal(t, e, blocker)
	if e.Cancel(id) {
		t.Fatal("cancel of a terminal job should return false")
	}
}

func TestEngineCancelRunning(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1})
	started := make(chan struct{})
	id, _ := e.Submit("predict", "", func(ctx context.Context) ([]byte, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	<-started
	if !e.Cancel(id) {
		t.Fatal("cancel of a running job returned false")
	}
	s := waitTerminal(t, e, id)
	if s.State != StateCanceled {
		t.Fatalf("got state=%s, want canceled", s.State)
	}
}

func TestEngineQueueFull(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 2})
	gate := make(chan struct{})
	defer close(gate)
	block := func(ctx context.Context) ([]byte, error) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return nil, nil
	}
	// Depth counts every non-terminal job: the running one plus one queued.
	if _, err := e.Submit("advise", "", block); err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	if _, err := e.Submit("advise", "", block); err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	var shed *ShedError
	if _, err := e.Submit("advise", "", block); !errors.As(err, &shed) || shed.Reason != "queue" {
		t.Fatalf("submit 3: got %v, want a queue ShedError", err)
	}
}

func TestEngineTTLExpiresStaleQueuedJob(t *testing.T) {
	// A fake clock that only the test moves: the stale job ages past the TTL
	// in one step, and nothing finished after that step can age out.
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	e := newTestEngine(t, Config{Workers: 1, TTL: time.Minute, Now: clock})
	gate := make(chan struct{})
	blocker, _ := e.Submit("advise", "", func(ctx context.Context) ([]byte, error) {
		<-gate
		return nil, nil
	})
	stale, err := e.Submit("advise", "", func(ctx context.Context) ([]byte, error) {
		t.Error("expired job must not run")
		return nil, nil
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	close(gate)
	waitTerminal(t, e, blocker)
	s := waitTerminal(t, e, stale)
	if s.State != StateExpired || s.Attempts != 0 {
		t.Fatalf("got state=%s attempts=%d, want expired before any attempt", s.State, s.Attempts)
	}
}

// TestEngineExpiryIsErrExpired pins the TTL expiry of a job whose retry
// comes due past the TTL: it settles as expired, never run again. A Do
// call has no TTL expiry; its context bounds its wait. Only the test moves
// the fake clock.
func TestEngineExpiryIsErrExpired(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	e := newTestEngine(t, Config{Workers: 1, TTL: time.Minute, MaxAttempts: 2,
		Backoff: 200 * time.Millisecond, MaxBackoff: 200 * time.Millisecond, Now: clock})
	var calls atomic.Int32
	id, _ := e.Submit("advise", "", func(ctx context.Context) ([]byte, error) {
		calls.Add(1)
		return nil, &budget.TransientError{Err: errors.New("flaky")}
	})
	waitFor(t, "the job never reached its retry", func() bool {
		s, _ := e.Get(id)
		return s.State == StateRetrying
	})
	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	if s := waitTerminal(t, e, id); s.State != StateExpired || s.Attempts != 1 {
		t.Fatalf("job state %s after %d attempts, its retry due past the TTL; want expired after 1",
			s.State, s.Attempts)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("the expired job ran %d times, want 1", n)
	}
}

// TestEngineDoLeavesQueueWhenContextEnds: a Do call whose context ends
// while it is still queued returns ctx.Err() at once, never runs, and
// frees its QueueDepth slot for the next admission.
func TestEngineDoLeavesQueueWhenContextEnds(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 2})
	gate := make(chan struct{})
	defer close(gate)
	block := func(ctx context.Context) ([]byte, error) {
		<-gate
		return nil, nil
	}
	if _, err := e.Submit("advise", "", block); err != nil {
		t.Fatalf("blocker: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		ran bool
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		_, ran, err := e.Do(ctx, "advise", "k", func(ctx context.Context) ([]byte, error) {
			t.Error("a Do call that left the queue must not run")
			return nil, nil
		})
		done <- outcome{ran, err}
	}()
	waitFor(t, "the Do call never queued behind the blocker", func() bool {
		pending, _ := e.Admission()
		return pending == 2 && e.Running() == 1
	})
	var shed *ShedError
	if _, err := e.Submit("advise", "", block); !errors.As(err, &shed) {
		t.Fatalf("Submit with the queue full: got %v, want a ShedError", err)
	}
	cancel()
	if o := <-done; !errors.Is(o.err, context.Canceled) || o.ran {
		t.Fatalf("Do after its context ended: (ran %v, %v), want (false, context.Canceled)", o.ran, o.err)
	}
	if pending, _ := e.Admission(); pending != 1 {
		t.Fatalf("%d computations pending after the Do left the queue, want 1", pending)
	}
	if _, err := e.Submit("advise", "", block); err != nil {
		t.Fatalf("Submit into the freed slot: %v", err)
	}
}

// waitFor polls cond until it holds, failing the test after 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEngineDoRunsOnceUnlisted pins the synchronous entry point: a Do call
// makes exactly one attempt even when that attempt fails transiently,
// consumes no job ID and never shows in List, and is refused at admission
// like a job once the queue bound is reached.
func TestEngineDoRunsOnceUnlisted(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 2, MaxAttempts: 3})
	calls := 0
	ctx := context.Background()
	_, ran, err := e.Do(ctx, "advise", "k", func(ctx context.Context) ([]byte, error) {
		calls++
		return nil, &budget.TransientError{Err: errors.New("flaky")}
	})
	var te *budget.TransientError
	if !errors.As(err, &te) || calls != 1 || !ran {
		t.Fatalf("Do: err=%v after %d attempts (ran %v), want the transient error after 1", err, calls, ran)
	}
	body, _, err := e.Do(ctx, "advise", "k", func(ctx context.Context) ([]byte, error) { return []byte("ok"), nil })
	if err != nil || string(body) != "ok" {
		t.Fatalf("Do: got (%q, %v), want (ok, nil)", body, err)
	}
	if n := len(e.List()); n != 0 {
		t.Fatalf("List holds %d entries after two Do calls, want 0", n)
	}
	gate := make(chan struct{})
	defer close(gate)
	id, err := e.Submit("advise", "", func(ctx context.Context) ([]byte, error) {
		<-gate
		return nil, nil
	})
	if err != nil || id != "j-000001" {
		t.Fatalf("first Submit after Do: (%q, %v), want j-000001", id, err)
	}
	go e.Do(ctx, "advise", "queued", func(ctx context.Context) ([]byte, error) { return nil, nil })
	waitFor(t, "Do call never queued behind the running job", func() bool {
		pending, _ := e.Admission()
		return e.Running() == 1 && pending == 2
	})
	var shed *ShedError
	if _, ran, err := e.Do(ctx, "advise", "over", func(ctx context.Context) ([]byte, error) {
		t.Error("Do past the queue bound must not run")
		return nil, nil
	}); !errors.As(err, &shed) || shed.Reason != "queue" || ran {
		t.Fatalf("Do past QueueDepth: got (ran %v, %v), want a queue ShedError", ran, err)
	}
}

func TestEngineDrainCancelsQueuedAndRejectsNew(t *testing.T) {
	e := NewEngine(context.Background(), Config{Workers: 1})
	started := make(chan struct{})
	release := make(chan struct{})
	running, _ := e.Submit("advise", "", func(ctx context.Context) ([]byte, error) {
		close(started)
		select {
		case <-release:
			return []byte("late but fine"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	<-started
	queued, _ := e.Submit("advise", "", func(ctx context.Context) ([]byte, error) {
		t.Error("queued job must not start during drain")
		return nil, nil
	})

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		drained <- e.Drain(ctx)
	}()
	// The queued job settles immediately; the running one after release.
	s := waitTerminal(t, e, queued)
	if s.State != StateCanceled {
		t.Fatalf("queued job: got state=%s, want canceled", s.State)
	}
	if _, err := e.Submit("advise", "", nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain: got %v, want ErrDraining", err)
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if s, _ := e.Get(running); s.State != StateDone {
		t.Fatalf("running job: got state=%s, want done (finished before deadline)", s.State)
	}
}

func TestEngineDrainDeadlineHardCancels(t *testing.T) {
	e := NewEngine(context.Background(), Config{Workers: 1})
	started := make(chan struct{})
	id, _ := e.Submit("advise", "", func(ctx context.Context) ([]byte, error) {
		close(started)
		<-ctx.Done() // only the drain hard-cancel frees this job
		return nil, ctx.Err()
	})
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := e.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain: got %v, want DeadlineExceeded", err)
	}
	s, _ := e.Get(id)
	if !s.State.Terminal() {
		t.Fatalf("job left non-terminal state %s after drain returned", s.State)
	}
}

func TestEngineWeightedFairDispatch(t *testing.T) {
	e := newTestEngine(t, Config{
		Workers: 1,
		Weights: map[string]float64{"a": 1, "b": 2},
	})
	var mu sync.Mutex
	var order []string
	record := func(tenant string) Compute {
		return func(ctx context.Context) ([]byte, error) {
			mu.Lock()
			order = append(order, tenant)
			mu.Unlock()
			return nil, nil
		}
	}
	// Occupy the single worker so the real submissions all queue up and the
	// scheduler alone decides their order.
	gate := make(chan struct{})
	blocker, _ := e.Submit("advise", "z", func(ctx context.Context) ([]byte, error) {
		<-gate
		return nil, nil
	})
	var last string
	for i := 0; i < 3; i++ {
		last, _ = e.Submit("advise", "a", record("a"))
	}
	for i := 0; i < 6; i++ {
		last, _ = e.Submit("advise", "b", record("b"))
	}
	close(gate)
	waitTerminal(t, e, blocker)
	waitTerminal(t, e, last)
	for _, s := range e.List() {
		waitTerminal(t, e, s.ID)
	}
	mu.Lock()
	got := strings.Join(order, "")
	mu.Unlock()
	// Stride schedule for weights a:1, b:2 with both backlogged: b gets two
	// dispatches per a, ties broken by name.
	if want := "abbabbabb"; got != want {
		t.Fatalf("dispatch order %q, want %q", got, want)
	}
}

func TestEngineSequentialIDs(t *testing.T) {
	e := newTestEngine(t, Config{})
	for i := 1; i <= 3; i++ {
		id, err := e.Submit("advise", "", func(ctx context.Context) ([]byte, error) { return nil, nil })
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if want := fmt.Sprintf("j-%06d", i); id != want {
			t.Fatalf("id %q, want %q", id, want)
		}
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	mk := func(seed int64) *Engine {
		return &Engine{cfg: Config{Seed: seed, Backoff: 50 * time.Millisecond, MaxBackoff: 2 * time.Second}}
	}
	a, b := mk(7), mk(7)
	base := 50 * time.Millisecond
	for attempt := 1; attempt <= 8; attempt++ {
		d := base
		for i := 1; i < attempt && d < 2*time.Second; i++ {
			d *= 2
		}
		if d > 2*time.Second {
			d = 2 * time.Second
		}
		got := a.backoffFor("j-000001", attempt)
		if got != b.backoffFor("j-000001", attempt) {
			t.Fatalf("attempt %d: same seed produced different jitter", attempt)
		}
		if got < d/2 || got >= d {
			t.Fatalf("attempt %d: backoff %s outside [%s, %s)", attempt, got, d/2, d)
		}
	}
	if mk(7).backoffFor("j-000001", 1) == mk(8).backoffFor("j-000001", 1) &&
		mk(7).backoffFor("j-000002", 1) == mk(8).backoffFor("j-000002", 1) {
		t.Fatal("different seeds produced identical jitter for two keys")
	}
}

func TestEngineListSubmissionOrder(t *testing.T) {
	e := newTestEngine(t, Config{})
	var last string
	for i := 0; i < 5; i++ {
		last, _ = e.Submit("advise", "", func(ctx context.Context) ([]byte, error) { return nil, nil })
	}
	waitTerminal(t, e, last)
	snaps := e.List()
	if len(snaps) != 5 {
		t.Fatalf("list returned %d jobs, want 5", len(snaps))
	}
	for i, s := range snaps {
		if want := fmt.Sprintf("j-%06d", i+1); s.ID != want {
			t.Fatalf("list[%d] = %s, want %s", i, s.ID, want)
		}
	}
}
