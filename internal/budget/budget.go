// Package budget bounds and isolates Clara's analysis pipeline. Clara's
// value proposition is trustworthy predictions *before* porting, which means
// the analyzer itself must never hang, OOM or crash on an adversarial NF or
// trace: every long-running entry point (behaviour enumeration, mapping,
// prediction, simulation, trace ingestion) accepts a context.Context and
// consults the Limits carried on it, returning a typed, partial-result-
// bearing error instead of running unbounded.
//
// Three error families cover the ways an analysis can end early:
//
//   - *ExceededError: a resource budget tripped (step counts, enumerated
//     paths, simulated events, table or DPI memory). errors.Is(err, Exceeded)
//     matches all of them; Partial carries whatever was computed.
//   - *CanceledError: the caller's context was cancelled or its deadline
//     passed. It wraps ctx.Err(), so errors.Is(err, context.Canceled) and
//     errors.Is(err, context.DeadlineExceeded) keep working.
//   - *PanicError: an internal invariant panicked mid-stage. Guard1 converts
//     the panic into a structured error naming the stage and NF, so one bad
//     NF cannot take down a server evaluating many.
package budget

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
)

// Limits bounds the resources one analysis may consume. The zero value
// means "defaults only": hard-coded safety caps still apply (interpreter
// step limits), but no tighter budget is enforced. Wall-clock limits are
// expressed through the context itself (context.WithTimeout / WithDeadline).
type Limits struct {
	// SymExecSteps caps interpreter steps per enumerated behaviour class
	// (0 selects DefaultSymExecSteps).
	SymExecSteps int64
	// SymExecPaths caps attribute-lattice points explored per enumeration
	// (0 = all; the built-in lattice is finite).
	SymExecPaths int64
	// SimSteps caps interpreter steps per simulated packet (0 selects
	// DefaultSimSteps).
	SimSteps int64
	// SimEvents caps packets simulated per nicsim run, generated per trace
	// synthesis, or ingested per pcap read (0 = unlimited).
	SimEvents int64
	// FlowEntries caps the declared capacity of any one simulated state
	// object — flow tables, arrays, sketches (0 selects DefaultFlowEntries).
	// The cap is what keeps `state huge : array<8>[1e9]` from allocating
	// gigabytes inside the simulator.
	FlowEntries int64
	// DPIBytes caps payload bytes scanned per DPI invocation in the
	// simulator (0 = the whole payload).
	DPIBytes int64
}

// Default safety caps applied when the corresponding Limits field is zero.
const (
	DefaultSymExecSteps = 500_000
	DefaultSimSteps     = 5_000_000
	DefaultFlowEntries  = 1 << 24 // 16M entries ≈ 128 MB of simulated values
)

// SymExecStepLimit resolves the per-class step cap.
func (l Limits) SymExecStepLimit() int64 {
	if l.SymExecSteps > 0 {
		return l.SymExecSteps
	}
	return DefaultSymExecSteps
}

// SimStepLimit resolves the per-packet step cap.
func (l Limits) SimStepLimit() int64 {
	if l.SimSteps > 0 {
		return l.SimSteps
	}
	return DefaultSimSteps
}

// FlowEntryLimit resolves the per-state capacity cap.
func (l Limits) FlowEntryLimit() int64 {
	if l.FlowEntries > 0 {
		return l.FlowEntries
	}
	return DefaultFlowEntries
}

// Clamp tightens every dimension of a requested budget to at most the
// ceiling: a zero ceiling dimension passes the request through unchanged, a
// zero (unlimited or default) request dimension adopts the ceiling, and
// otherwise the smaller of the two wins. Servers apply it so a client's
// -budget spec can narrow, but never widen, the operator's per-request
// limits.
func Clamp(req, ceiling Limits) Limits {
	c := func(r, ceil int64) int64 {
		if ceil <= 0 {
			return r
		}
		if r <= 0 || r > ceil {
			return ceil
		}
		return r
	}
	return Limits{
		SymExecSteps: c(req.SymExecSteps, ceiling.SymExecSteps),
		SymExecPaths: c(req.SymExecPaths, ceiling.SymExecPaths),
		SimSteps:     c(req.SimSteps, ceiling.SimSteps),
		SimEvents:    c(req.SimEvents, ceiling.SimEvents),
		FlowEntries:  c(req.FlowEntries, ceiling.FlowEntries),
		DPIBytes:     c(req.DPIBytes, ceiling.DPIBytes),
	}
}

type ctxKey struct{}

// With returns a context carrying the limits; every budget-aware entry
// point downstream of it enforces them.
func With(ctx context.Context, l Limits) context.Context {
	return context.WithValue(ctx, ctxKey{}, l)
}

// From extracts the limits carried by ctx (the zero Limits when absent).
func From(ctx context.Context) Limits {
	if l, ok := ctx.Value(ctxKey{}).(Limits); ok {
		return l
	}
	return Limits{}
}

// Usage accumulates the resources an analysis actually consumed — the
// observable counterpart of Limits. Attach one to the context with WithUsage
// and the budget-aware stages (symbolic enumeration, simulation, trace
// generation and ingestion) add what they spend; Snapshot then reports
// consumption next to the limits, which is what the CLIs export as
// clara_budget_* gauges. All methods are nil-safe, so instrumented stages
// call through unconditionally; a bare context costs one nil check.
//
// Usage is safe for concurrent use: every counter is an atomic, so N
// simulator shards — or N co-located tenant Sims stepping on parallel
// window workers — may share one context's accumulator with no external
// locking. TestUsageSharedAcrossColocatedSims pins this under -race.
type Usage struct {
	symExecSteps atomic.Int64
	symExecPaths atomic.Int64
	simSteps     atomic.Int64
	simEvents    atomic.Int64
	tracePackets atomic.Int64
}

// UsageSnapshot is a point-in-time copy of a Usage, with the resolved limit
// next to each consumed dimension (0 limit = unlimited).
type UsageSnapshot struct {
	SymExecSteps, SymExecStepLimit int64
	SymExecPaths, SymExecPathLimit int64
	SimSteps, SimStepLimit         int64
	SimEvents, SimEventLimit       int64
	TracePackets                   int64
}

type usageKey struct{}

// WithUsage returns a context carrying u; budget-aware stages downstream
// accumulate consumption into it.
func WithUsage(ctx context.Context, u *Usage) context.Context {
	return context.WithValue(ctx, usageKey{}, u)
}

// UsageFrom extracts the usage accumulator carried by ctx (nil when absent;
// the nil accumulator's methods are no-ops).
func UsageFrom(ctx context.Context) *Usage {
	u, _ := ctx.Value(usageKey{}).(*Usage)
	return u
}

// AddSymExecSteps records interpreter steps spent enumerating behaviours.
func (u *Usage) AddSymExecSteps(n int64) {
	if u != nil {
		u.symExecSteps.Add(n)
	}
}

// AddSymExecPaths records attribute-lattice points explored.
func (u *Usage) AddSymExecPaths(n int64) {
	if u != nil {
		u.symExecPaths.Add(n)
	}
}

// AddSimSteps records interpreter steps spent simulating packets.
func (u *Usage) AddSimSteps(n int64) {
	if u != nil {
		u.simSteps.Add(n)
	}
}

// AddSimEvents records packets simulated.
func (u *Usage) AddSimEvents(n int64) {
	if u != nil {
		u.simEvents.Add(n)
	}
}

// AddTracePackets records packets generated or ingested from a trace.
func (u *Usage) AddTracePackets(n int64) {
	if u != nil {
		u.tracePackets.Add(n)
	}
}

// Snapshot pairs the accumulated consumption with the limits' resolved caps.
// Safe on a nil Usage (all-zero consumption).
func (u *Usage) Snapshot(l Limits) UsageSnapshot {
	s := UsageSnapshot{
		SymExecStepLimit: l.SymExecStepLimit(),
		SymExecPathLimit: l.SymExecPaths,
		SimStepLimit:     l.SimStepLimit(),
		SimEventLimit:    l.SimEvents,
	}
	if u == nil {
		return s
	}
	s.SymExecSteps = u.symExecSteps.Load()
	s.SymExecPaths = u.symExecPaths.Load()
	s.SimSteps = u.simSteps.Load()
	s.SimEvents = u.simEvents.Load()
	s.TracePackets = u.tracePackets.Load()
	return s
}

// Exceeded is the sentinel every *ExceededError matches via errors.Is.
var Exceeded = errors.New("budget exceeded")

// ExceededError reports which budget dimension tripped, where, and what was
// computed before the trip.
type ExceededError struct {
	// Resource names the dimension: "symexec-steps", "symexec-paths",
	// "sim-steps", "sim-events", "flow-entries", "trace-packets".
	Resource string
	Limit    int64
	// Stage is the pipeline stage that observed the trip ("enumerate",
	// "simulate", "generate", ...); NF the analyzed function, when known.
	Stage string
	NF    string
	// Partial holds whatever the stage computed before stopping (e.g. the
	// classes enumerated so far, or a *nicsim.Result covering the packets
	// that did run). Nil when nothing useful survived.
	Partial any
}

func (e *ExceededError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "budget exceeded: %s limit %d", e.Resource, e.Limit)
	if e.Stage != "" {
		fmt.Fprintf(&b, " in stage %s", e.Stage)
	}
	if e.NF != "" {
		fmt.Fprintf(&b, " (nf %s)", e.NF)
	}
	if e.Partial != nil {
		b.WriteString(" [partial results available]")
	}
	return b.String()
}

// Is makes errors.Is(err, Exceeded) match any ExceededError.
func (e *ExceededError) Is(target error) bool { return target == Exceeded }

// CanceledError wraps a context cancellation with the pipeline stage that
// observed it; Unwrap preserves errors.Is(err, context.Canceled/
// DeadlineExceeded). Partial carries stage results computed before the
// cancellation, when any.
type CanceledError struct {
	Stage   string
	NF      string
	Err     error // the underlying ctx.Err()
	Partial any
}

func (e *CanceledError) Error() string {
	var b strings.Builder
	b.WriteString("canceled")
	if e.Stage != "" {
		fmt.Fprintf(&b, " in stage %s", e.Stage)
	}
	if e.NF != "" {
		fmt.Fprintf(&b, " (nf %s)", e.NF)
	}
	fmt.Fprintf(&b, ": %v", e.Err)
	return b.String()
}

func (e *CanceledError) Unwrap() error { return e.Err }

// Canceled wraps ctx.Err() into a CanceledError when ctx is done, and
// returns nil otherwise. Use it as a poll point inside loops.
func Canceled(ctx context.Context, stage, nf string) error {
	if err := ctx.Err(); err != nil {
		return &CanceledError{Stage: stage, NF: nf, Err: err}
	}
	return nil
}

// TransientError marks a failure as transient: the computation itself is
// fine, the attempt hit a passing condition (an injected fault, a flaky
// dependency, momentary overload) and retrying it is worthwhile. Retry
// engines match it via errors.As / Transient; Unwrap preserves errors.Is
// against the underlying cause.
type TransientError struct {
	Err error
}

func (e *TransientError) Error() string { return fmt.Sprintf("transient: %v", e.Err) }

func (e *TransientError) Unwrap() error { return e.Err }

// ResourceLimit resolves the cap these limits impose on a named budget
// resource — the Resource strings ExceededError reports. Dimensions with
// library safety defaults resolve to them; purely optional dimensions
// ("symexec-paths", "sim-events"/"trace-packets", "dpi-bytes") resolve to 0
// when unset, meaning unlimited.
func (l Limits) ResourceLimit(resource string) int64 {
	switch resource {
	case "symexec-steps":
		return l.SymExecStepLimit()
	case "symexec-paths":
		return l.SymExecPaths
	case "sim-steps":
		return l.SimStepLimit()
	case "sim-events", "trace-packets":
		return l.SimEvents
	case "flow-entries":
		return l.FlowEntryLimit()
	case "dpi-bytes":
		return l.DPIBytes
	}
	return 0
}

// Retryable reports whether err reflects the caller's context or budget
// rather than the analyzed NF itself, in which case the result must not be
// memoized: a later call with a looser budget or live context may succeed.
func Retryable(err error) bool {
	return errors.Is(err, Exceeded) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// Transient partitions pipeline errors by retryability against an operator
// ceiling. Worth retrying: explicitly marked TransientError values (injected
// faults), Guard1-recovered panics (the invariant violation may be
// load-dependent — and one attempt must never condemn the job), and
// deadline expiries (a retry runs under a fresh deadline). Fail-fast:
// plain cancellation (the caller is gone or the server is draining), and
// budget trips at the ceiling — the operator will not grant more, so the
// rerun deterministically trips again. A budget trip *below* the ceiling
// that produced partial results is classified transient: it names a
// clamped attempt, not an impossible request.
func Transient(err error, ceiling Limits) bool {
	var te *TransientError
	if errors.As(err, &te) {
		return true
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		return true
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	if errors.Is(err, context.Canceled) {
		return false
	}
	var ee *ExceededError
	if errors.As(err, &ee) {
		ceil := ceiling.ResourceLimit(ee.Resource)
		return ee.Partial != nil && ceil > 0 && ee.Limit < ceil
	}
	return false
}

// PanicError is an internal invariant violation converted into a structured
// error by Guard1, carrying the failing stage, the NF under analysis, the
// recovered value and the stack.
type PanicError struct {
	Stage string
	NF    string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	nf := e.NF
	if nf == "" {
		nf = "<unknown>"
	}
	return fmt.Sprintf("internal error in stage %s (nf %s): %v", e.Stage, nf, e.Value)
}

// Guard1 runs fn, converting a panic into the zero value and a
// *PanicError. It is the isolation boundary around each pipeline stage: a
// compiler or mapper invariant violation on one NF becomes an error the
// caller can log and skip.
func Guard1[T any](stage, nf string, fn func() (T, error)) (out T, err error) {
	defer func() {
		if r := recover(); r != nil {
			var zero T
			out = zero
			err = &PanicError{Stage: stage, NF: nf, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// Parse decodes a compact budget spec such as
//
//	"symsteps=200000,sympaths=64,simsteps=1e6,events=100000,flows=100000,dpi=4096"
//
// Unknown keys are rejected; omitted keys stay zero (defaults). Values accept
// scientific notation for convenience on the command line.
func Parse(spec string) (Limits, error) {
	var l Limits
	if strings.TrimSpace(spec) == "" {
		return l, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 {
			return l, fmt.Errorf("budget: bad field %q (want key=value)", kv)
		}
		key, val := strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1])
		n, err := parseCount(val)
		if err != nil {
			return l, fmt.Errorf("budget: field %q: %v", key, err)
		}
		switch key {
		case "symsteps":
			l.SymExecSteps = n
		case "sympaths":
			l.SymExecPaths = n
		case "simsteps":
			l.SimSteps = n
		case "events":
			l.SimEvents = n
		case "flows":
			l.FlowEntries = n
		case "dpi":
			l.DPIBytes = n
		default:
			return l, fmt.Errorf("budget: unknown field %q (have symsteps, sympaths, simsteps, events, flows, dpi)", key)
		}
	}
	return l, nil
}

func parseCount(val string) (int64, error) {
	if n, err := strconv.ParseInt(val, 10, 64); err == nil {
		if n < 0 {
			return 0, fmt.Errorf("negative count %d", n)
		}
		return n, nil
	}
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, err
	}
	if f < 0 || f > 1e18 {
		return 0, fmt.Errorf("count %v out of range", f)
	}
	return int64(f), nil
}
