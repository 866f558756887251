// Package jobs is the resilience layer under clara-serve: a bounded engine
// that admits and runs every computation, async jobs (Submit) and
// synchronous calls (Do) alike, with per-tenant weighted-fair scheduling,
// transient-failure retries with deterministic backoff jitter, circuit
// breaking, adaptive load shedding, and a seeded chaos middleware for
// fault-injection tests.
//
// The engine's contract is that every accepted job reaches exactly one
// terminal state — done, failed, canceled, or expired — no matter what the
// computation does (fail, panic, stall) and no matter when the engine
// drains. Nothing accepted is ever silently lost.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"clara/internal/budget"
	"clara/internal/obs"
)

// State is a job lifecycle state. Jobs move strictly forward:
// queued -> running -> (retrying -> running ...) -> terminal.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateRetrying State = "retrying"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
	StateExpired  State = "expired"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCanceled, StateExpired:
		return true
	}
	return false
}

// ErrDraining refuses an admission, and settles a queued computation,
// once the engine drains: the caller should surface 503 and the client
// should retry elsewhere or later.
var ErrDraining = errors.New("jobs: engine draining")

// ShedError is the overload answer to an admission: the QueueDepth bound
// is reached (reason "queue") or the shedder's latency signal fired
// ("latency"). Either way the caller should retry after a second.
type ShedError struct {
	Reason string
}

func (e *ShedError) Error() string { return "shedding load (" + e.Reason + ")" }

// Compute is the unit of deferred work. It must honor ctx cancellation;
// panics are recovered at the engine's guard boundary and treated as
// transient failures.
type Compute func(ctx context.Context) ([]byte, error)

// Snapshot is the externally visible view of a job.
type Snapshot struct {
	ID       string    `json:"id"`
	Kind     string    `json:"kind"`
	Tenant   string    `json:"tenant,omitempty"`
	State    State     `json:"state"`
	Attempts int       `json:"attempts"`
	Error    string    `json:"error,omitempty"`
	Result   []byte    `json:"-"`
	Created  time.Time `json:"created"`
	Finished time.Time `json:"finished"`
}

// Config parameterizes an Engine. The zero value selects the documented
// defaults.
type Config struct {
	// Workers is the worker-pool size (default 2).
	Workers int
	// QueueDepth bounds computations admitted but not yet terminal, jobs
	// and Do calls alike; admissions beyond it are refused with a
	// *ShedError for reason "queue" (default 256).
	QueueDepth int
	// MaxAttempts bounds executions per job, first try included (default 3).
	MaxAttempts int
	// Backoff is the delay before the first retry; it doubles per retry up
	// to MaxBackoff, with deterministic jitter in [d/2, d) (defaults 50ms
	// and 2s).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// TTL is how long a terminal job's snapshot stays pollable, and the
	// maximum age at which a queued job may still start (default 15m). A
	// Do call's wait is bounded by its context instead.
	TTL time.Duration
	// Seed fixes the backoff jitter pattern.
	Seed int64
	// Weights maps tenant name to scheduling weight; absent tenants get 1.
	Weights map[string]float64
	// Transient classifies an attempt error as retryable. Default:
	// budget.Transient against zero ceiling limits.
	Transient func(error) bool
	// Chaos, when non-nil, returns the current fault-injection middleware;
	// consulted per attempt so tests can switch chaos off mid-run.
	Chaos func() *Chaos
	// Shed, when non-nil, refuses admissions while computations run slow.
	Shed *Shedder
	// Metrics receives engine counters and gauges; nil is fine.
	Metrics *obs.Metrics
	// Now is the clock (tests inject a fake; default time.Now).
	Now func() time.Time
}

// job is the internal record. All mutable fields are guarded by Engine.mu.
type job struct {
	id       string
	kind     string
	tenant   string
	fn       Compute
	state    State
	attempts int
	err      error
	result   []byte
	created  time.Time
	finished time.Time
	// runCancel cancels the in-flight attempt's context (set while running).
	runCancel context.CancelFunc
	// retry is the pending backoff timer (set while retrying).
	retry *time.Timer
	// canceled marks a running job whose cancellation was requested; the
	// attempt outcome is overridden to canceled when it settles.
	canceled bool
	// done, non-nil for a computation run through Do, closes when it
	// settles. Its id is only its kind, a label for errors; key names it to
	// the chaos middleware.
	done chan struct{}
	key  string
	// ctx bounds the wait in the queue and every attempt: a Do caller's
	// context, or the engine's base for a job.
	ctx context.Context
}

// Engine runs submitted computations on a bounded worker pool with
// weighted-fair dispatch across tenants. All exported methods are safe for
// concurrent use.
type Engine struct {
	cfg  Config
	base context.Context
	stop context.CancelFunc

	mu       sync.Mutex
	cond     *sync.Cond
	sched    *wfq
	jobs     map[string]*job
	order    []string // submission order, for List and deterministic drain
	seq      int
	pending  int // non-terminal jobs, bounded by QueueDepth
	running  int
	draining bool
	pruneAt  time.Time
	workers  sync.WaitGroup
}

// NewEngine starts the worker pool. The engine stops executing attempts
// when parent is canceled, but Drain is still required to settle records.
func NewEngine(parent context.Context, cfg Config) *Engine {
	if cfg.Workers < 1 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 256
	}
	if cfg.MaxAttempts < 1 {
		cfg.MaxAttempts = 3
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 50 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 2 * time.Second
	}
	if cfg.TTL <= 0 {
		cfg.TTL = 15 * time.Minute
	}
	if cfg.Transient == nil {
		cfg.Transient = func(err error) bool { return budget.Transient(err, budget.Limits{}) }
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	base, stop := context.WithCancel(parent)
	e := &Engine{
		cfg:   cfg,
		base:  base,
		stop:  stop,
		sched: newWFQ(cfg.Weights),
		jobs:  map[string]*job{},
	}
	e.cond = sync.NewCond(&e.mu)
	e.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go e.worker()
	}
	return e
}

// Submit accepts a computation and returns its job ID, or ErrDraining /
// *ShedError when it cannot be accepted. IDs are sequential,
// so a fixed submission order yields a fixed ID assignment — the anchor for
// the chaos harness's determinism checks.
func (e *Engine) Submit(kind, tenant string, fn Compute) (string, error) {
	j := &job{kind: kind, tenant: tenant, fn: fn, ctx: e.base}
	if err := e.admit(j); err != nil {
		return "", err
	}
	return j.id, nil
}

// Do runs fn as a synchronous computation and waits for its outcome. It is
// admitted and queued (under the "" tenant) exactly as Submit's jobs are,
// but consumes no job ID, is never listed, and makes one attempt, which
// the chaos middleware sees as key's attempt 0. ctx bounds the whole call:
// if it ends while the computation queues, the computation leaves the
// queue unrun and Do returns ctx.Err(). ran reports whether it ran.
func (e *Engine) Do(ctx context.Context, kind, key string, fn Compute) (result []byte, ran bool, err error) {
	j := &job{id: kind, kind: kind, key: key, fn: fn, ctx: ctx, done: make(chan struct{})}
	if err := e.admit(j); err != nil {
		return nil, false, err
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		e.mu.Lock()
		if j.state == StateQueued {
			e.dequeueLocked(j, ctx.Err())
		}
		e.mu.Unlock()
		<-j.done
	}
	return j.result, j.attempts > 0, j.err
}

// admit is the engine's one admission path, for Submit and Do alike: the
// refusal rules, then the weighted-fair queue.
func (e *Engine) admit(j *job) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.refusalLocked(); err != nil {
		var shed *ShedError
		if errors.As(err, &shed) {
			e.cfg.Metrics.Counter("clara_jobs_shed_total", "reason", shed.Reason).Inc()
		}
		return err
	}
	j.state = StateQueued
	j.created = e.cfg.Now()
	if j.done == nil {
		e.seq++
		j.id = fmt.Sprintf("j-%06d", e.seq)
		e.jobs[j.id] = j
		e.order = append(e.order, j.id)
		e.cfg.Metrics.Counter("clara_jobs_submitted_total", "kind", j.kind).Inc()
	}
	e.pending++
	e.sched.push(j)
	e.cfg.Metrics.Gauge("clara_jobs_queue_depth").Set(int64(e.sched.len()))
	e.cond.Signal()
	return nil
}

// refusalLocked is the error the next admission would be refused with, or
// nil. Caller holds e.mu.
func (e *Engine) refusalLocked() error {
	if e.draining {
		return ErrDraining
	}
	if e.pending >= e.cfg.QueueDepth {
		return &ShedError{Reason: "queue"}
	}
	if e.cfg.Shed.Check() {
		return &ShedError{Reason: "latency"}
	}
	return nil
}

// Get returns the snapshot for id. Terminal jobs age out TTL after
// finishing.
func (e *Engine) Get(id string) (Snapshot, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pruneLocked()
	j, ok := e.jobs[id]
	if !ok {
		return Snapshot{}, false
	}
	return e.snapshotLocked(j), true
}

// List returns snapshots of all retained jobs in submission order.
func (e *Engine) List() []Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pruneLocked()
	out := make([]Snapshot, 0, len(e.order))
	for _, id := range e.order {
		if j, ok := e.jobs[id]; ok {
			out = append(out, e.snapshotLocked(j))
		}
	}
	return out
}

// Cancel requests cancellation of a job. Queued and retrying jobs settle
// immediately; running jobs have their attempt context canceled and settle
// when the attempt returns. Canceling a terminal or unknown job is a no-op
// returning false.
func (e *Engine) Cancel(id string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	if !ok || j.state.Terminal() {
		return false
	}
	switch j.state {
	case StateQueued:
		e.dequeueLocked(j, context.Canceled)
	case StateRetrying:
		if j.retry != nil {
			j.retry.Stop()
			j.retry = nil
		}
		e.finalizeLocked(j, StateCanceled, context.Canceled)
	case StateRunning:
		j.canceled = true
		if j.runCancel != nil {
			j.runCancel()
		}
	}
	return true
}

// dequeueLocked settles a queued computation as canceled, unrun. Caller
// holds e.mu.
func (e *Engine) dequeueLocked(j *job, err error) {
	e.sched.remove(j)
	e.cfg.Metrics.Gauge("clara_jobs_queue_depth").Set(int64(e.sched.len()))
	e.finalizeLocked(j, StateCanceled, err)
}

// Admission reports the computations admitted but not yet terminal, the
// count QueueDepth bounds, and the error the next admission would be
// refused with, or nil.
func (e *Engine) Admission() (pending int, refusal error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pending, e.refusalLocked()
}

// Running reports in-flight attempts.
func (e *Engine) Running() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.running
}

// Drain stops admission, cancels everything not yet running, and waits for
// in-flight attempts to settle. Every accepted job is terminal when Drain
// returns. If ctx expires first, remaining attempts are hard-canceled via
// the engine base context and Drain still waits for them to settle before
// returning ctx.Err().
func (e *Engine) Drain(ctx context.Context) error {
	e.mu.Lock()
	if !e.draining {
		e.draining = true
		for j := e.sched.next(); j != nil; j = e.sched.next() {
			e.finalizeLocked(j, StateCanceled, ErrDraining)
		}
		for _, id := range e.order {
			if j := e.jobs[id]; j.state == StateRetrying {
				if j.retry != nil {
					j.retry.Stop()
					j.retry = nil
				}
				e.finalizeLocked(j, StateCanceled, ErrDraining)
			}
		}
		e.cond.Broadcast()
	}
	e.mu.Unlock()

	settled := make(chan struct{})
	go func() {
		e.workers.Wait()
		close(settled)
	}()
	select {
	case <-settled:
		return nil
	case <-ctx.Done():
		e.stop() // hard-cancel in-flight attempt contexts
		<-settled
		return ctx.Err()
	}
}

// worker is the dispatch loop: pull the next fair job, run one attempt,
// settle it, repeat. Workers exit once draining and the queue is empty.
func (e *Engine) worker() {
	defer e.workers.Done()
	for {
		e.mu.Lock()
		for e.sched.empty() && !e.draining {
			e.cond.Wait()
		}
		if e.sched.empty() && e.draining {
			e.mu.Unlock()
			return
		}
		j := e.sched.next()
		e.cfg.Metrics.Gauge("clara_jobs_queue_depth").Set(int64(e.sched.len()))
		if err := j.ctx.Err(); err != nil {
			e.finalizeLocked(j, StateCanceled, err)
			e.mu.Unlock()
			continue
		}
		if age := e.cfg.Now().Sub(j.created); j.done == nil && age > e.cfg.TTL {
			e.finalizeLocked(j, StateExpired, fmt.Errorf("job %s waited %s in queue", j.id, age.Round(time.Millisecond)))
			e.mu.Unlock()
			continue
		}
		j.state = StateRunning
		j.attempts++
		attempt := j.attempts
		// The drain's hard stop cancels the engine's base, which a Do
		// caller's context does not derive from.
		ctx, cancel := context.WithCancel(j.ctx)
		stop := context.AfterFunc(e.base, cancel)
		j.runCancel = cancel
		e.running++
		e.cfg.Metrics.Gauge("clara_jobs_running").Set(int64(e.running))
		e.mu.Unlock()

		result, err := e.attempt(ctx, j, attempt)
		stop()
		cancel()
		e.settle(j, attempt, result, err)
	}
}

// attempt executes one guarded, chaos-wrapped run of the job function. It
// is the engine's one chaos and panic boundary, for jobs and Do alike.
func (e *Engine) attempt(ctx context.Context, j *job, attempt int) (result []byte, err error) {
	start := time.Now()
	defer func() {
		d := time.Since(start).Nanoseconds()
		e.cfg.Metrics.Histogram("clara_jobs_attempt_nanos", "kind", j.kind).Observe(d)
		AttemptNanos(e.cfg.Metrics).Observe(d)
	}()
	var ch *Chaos
	if e.cfg.Chaos != nil {
		ch = e.cfg.Chaos()
	}
	key := j.id
	if j.done != nil {
		key, attempt = j.key, 0
	}
	return budget.Guard1("job", j.id, func() ([]byte, error) {
		return ch.Do(key, attempt, func() ([]byte, error) { return j.fn(ctx) })
	})
}

// AttemptNanos is the histogram in m of every attempt's duration, all
// kinds together: the computation latency a Shedder's p99 signal reads.
func AttemptNanos(m *obs.Metrics) *obs.Histogram {
	return m.Histogram("clara_jobs_attempt_all_nanos")
}

// settle records an attempt outcome: terminal success/failure, a scheduled
// retry, or cancellation.
func (e *Engine) settle(j *job, attempt int, result []byte, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.running--
	e.cfg.Metrics.Gauge("clara_jobs_running").Set(int64(e.running))
	j.runCancel = nil
	switch {
	case j.canceled:
		e.finalizeLocked(j, StateCanceled, context.Canceled)
	case err == nil:
		j.result = result
		e.finalizeLocked(j, StateDone, nil)
	case e.draining:
		// The attempt was already in flight when drain began; whether it
		// failed organically or was cut down by the drain deadline, it will
		// not be retried.
		if errors.Is(err, context.Canceled) || e.cfg.Transient(err) {
			e.finalizeLocked(j, StateCanceled, err)
		} else {
			e.finalizeLocked(j, StateFailed, err)
		}
	case j.done == nil && e.cfg.Transient(err) && attempt < e.cfg.MaxAttempts:
		j.state = StateRetrying
		j.err = err
		e.cfg.Metrics.Counter("clara_jobs_retries_total").Inc()
		delay := e.backoffFor(j.id, attempt)
		j.retry = time.AfterFunc(delay, func() { e.requeue(j) })
	default:
		e.finalizeLocked(j, StateFailed, err)
	}
}

// requeue moves a retrying job back onto the scheduler when its backoff
// fires. The timer may race Cancel or Drain; the state check keeps the
// loser of that race a no-op.
func (e *Engine) requeue(j *job) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if j.state != StateRetrying {
		return
	}
	j.retry = nil
	if e.draining {
		e.finalizeLocked(j, StateCanceled, ErrDraining)
		return
	}
	if age := e.cfg.Now().Sub(j.created); age > e.cfg.TTL {
		e.finalizeLocked(j, StateExpired, fmt.Errorf("job %s was %s old at its retry", j.id, age.Round(time.Millisecond)))
		return
	}
	j.state = StateQueued
	e.sched.push(j)
	e.cfg.Metrics.Gauge("clara_jobs_queue_depth").Set(int64(e.sched.len()))
	e.cond.Signal()
}

// backoffFor returns the delay before the retry following the given
// attempt: Backoff doubled per prior retry, capped at MaxBackoff, with
// deterministic jitter in [d/2, d) keyed on (Seed, id, attempt).
func (e *Engine) backoffFor(id string, attempt int) time.Duration {
	d := e.cfg.Backoff
	for i := 1; i < attempt && d < e.cfg.MaxBackoff; i++ {
		d *= 2
	}
	if d > e.cfg.MaxBackoff {
		d = e.cfg.MaxBackoff
	}
	r := newDecisionRNG(e.cfg.Seed, "backoff\x00"+id, attempt)
	return d/2 + time.Duration(r.float()*float64(d/2))
}

// finalizeLocked moves a job to a terminal state exactly once, and wakes
// the caller of Do. Caller holds e.mu.
func (e *Engine) finalizeLocked(j *job, s State, err error) {
	if j.state.Terminal() {
		return
	}
	j.state = s
	j.err = err
	j.finished = e.cfg.Now()
	e.pending--
	if j.done != nil {
		close(j.done)
		return
	}
	e.cfg.Metrics.Counter("clara_jobs_completed_total", "state", string(s)).Inc()
}

// pruneLocked drops terminal jobs older than TTL. Throttled to once per
// TTL/8 so hot poll loops do not rescan the map. Caller holds e.mu.
func (e *Engine) pruneLocked() {
	now := e.cfg.Now()
	if !e.pruneAt.IsZero() && now.Before(e.pruneAt) {
		return
	}
	e.pruneAt = now.Add(e.cfg.TTL / 8)
	keep := e.order[:0]
	for _, id := range e.order {
		j := e.jobs[id]
		if j.state.Terminal() && now.Sub(j.finished) > e.cfg.TTL {
			delete(e.jobs, id)
			continue
		}
		keep = append(keep, id)
	}
	for i := len(keep); i < len(e.order); i++ {
		e.order[i] = ""
	}
	e.order = keep
}

func (e *Engine) snapshotLocked(j *job) Snapshot {
	s := Snapshot{
		ID:       j.id,
		Kind:     j.kind,
		Tenant:   j.tenant,
		State:    j.state,
		Attempts: j.attempts,
		Result:   j.result,
		Created:  j.created,
		Finished: j.finished,
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	return s
}
