package budget

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func TestParse(t *testing.T) {
	l, err := Parse("symsteps=200000,sympaths=64,simsteps=1e6,events=100000,flows=100000,dpi=4096")
	if err != nil {
		t.Fatal(err)
	}
	want := Limits{
		SymExecSteps: 200000, SymExecPaths: 64, SimSteps: 1_000_000,
		SimEvents: 100000, FlowEntries: 100000, DPIBytes: 4096,
	}
	if l != want {
		t.Fatalf("Parse = %+v, want %+v", l, want)
	}
}

func TestParseEmpty(t *testing.T) {
	l, err := Parse("  ")
	if err != nil || l != (Limits{}) {
		t.Fatalf("Parse(blank) = %+v, %v", l, err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus=1",        // unknown key
		"symsteps",       // no value
		"simsteps=-5",    // negative
		"events=notanum", // unparseable
		"flows=1e30",     // out of range
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

func TestResolverDefaults(t *testing.T) {
	var l Limits
	if got := l.SymExecStepLimit(); got != DefaultSymExecSteps {
		t.Errorf("SymExecStepLimit zero = %d, want %d", got, DefaultSymExecSteps)
	}
	if got := l.SimStepLimit(); got != DefaultSimSteps {
		t.Errorf("SimStepLimit zero = %d, want %d", got, DefaultSimSteps)
	}
	if got := l.FlowEntryLimit(); got != DefaultFlowEntries {
		t.Errorf("FlowEntryLimit zero = %d, want %d", got, DefaultFlowEntries)
	}
	l = Limits{SymExecSteps: 7, SimSteps: 8, FlowEntries: 9}
	if l.SymExecStepLimit() != 7 || l.SimStepLimit() != 8 || l.FlowEntryLimit() != 9 {
		t.Errorf("explicit limits not honored: %+v", l)
	}
}

func TestWithFrom(t *testing.T) {
	if got := From(context.Background()); got != (Limits{}) {
		t.Fatalf("From(bare ctx) = %+v, want zero", got)
	}
	want := Limits{SimEvents: 123}
	ctx := With(context.Background(), want)
	if got := From(ctx); got != want {
		t.Fatalf("From = %+v, want %+v", got, want)
	}
}

func TestExceededErrorIs(t *testing.T) {
	err := error(&ExceededError{Resource: "sim-steps", Limit: 10, Stage: "simulate", NF: "nat", Partial: 42})
	if !errors.Is(err, Exceeded) {
		t.Fatal("errors.Is(ExceededError, Exceeded) = false")
	}
	var ee *ExceededError
	if !errors.As(err, &ee) || ee.Partial != 42 {
		t.Fatalf("errors.As lost the partial result: %+v", ee)
	}
	msg := err.Error()
	for _, frag := range []string{"sim-steps", "simulate", "nat", "partial results"} {
		if !contains(msg, frag) {
			t.Errorf("Error() = %q, missing %q", msg, frag)
		}
	}
}

func TestCanceledErrorUnwrap(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Canceled(ctx, "map", "fw")
	if err == nil {
		t.Fatal("Canceled(done ctx) = nil")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatal("errors.Is(err, context.Canceled) = false")
	}
	var ce *CanceledError
	if !errors.As(err, &ce) || ce.Stage != "map" || ce.NF != "fw" {
		t.Fatalf("wrong CanceledError: %+v", ce)
	}
	if Canceled(context.Background(), "map", "fw") != nil {
		t.Fatal("Canceled(live ctx) != nil")
	}
}

func TestGuardConvertsPanic(t *testing.T) {
	_, err := Guard1("map", "nat", func() (struct{}, error) { panic("invariant violated") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Guard1 returned %v, want *PanicError", err)
	}
	if pe.Stage != "map" || pe.NF != "nat" || pe.Value != "invariant violated" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError fields wrong: %+v", pe)
	}
}

func TestGuard1ConvertsPanic(t *testing.T) {
	v, err := Guard1("predict", "fw", func() (int, error) { return 5, nil })
	if v != 5 || err != nil {
		t.Fatalf("Guard1 passthrough = %d, %v", v, err)
	}
	v, err = Guard1("predict", "fw", func() (int, error) { panic("boom") })
	var pe *PanicError
	if v != 0 || !errors.As(err, &pe) || pe.Stage != "predict" {
		t.Fatalf("Guard1 panic path = %d, %v", v, err)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestClamp(t *testing.T) {
	ceiling := Limits{SymExecSteps: 1000, SimSteps: 2000, SimEvents: 300}
	cases := []struct {
		name string
		req  Limits
		want Limits
	}{
		{"zero request adopts ceiling", Limits{}, ceiling},
		{"tighter request wins", Limits{SymExecSteps: 10, SimEvents: 5},
			Limits{SymExecSteps: 10, SimSteps: 2000, SimEvents: 5}},
		{"looser request clamps", Limits{SymExecSteps: 1e6, SimSteps: 1e6, SimEvents: 1e6}, ceiling},
		{"unlimited ceiling dims pass through", Limits{FlowEntries: 77, DPIBytes: 9},
			Limits{SymExecSteps: 1000, SimSteps: 2000, SimEvents: 300, FlowEntries: 77, DPIBytes: 9}},
	}
	for _, c := range cases {
		if got := Clamp(c.req, ceiling); got != c.want {
			t.Errorf("%s: Clamp(%+v) = %+v, want %+v", c.name, c.req, got, c.want)
		}
	}
	// A zero ceiling clamps nothing.
	req := Limits{SymExecSteps: 5, SimEvents: 7}
	if got := Clamp(req, Limits{}); got != req {
		t.Errorf("Clamp with zero ceiling = %+v, want %+v", got, req)
	}
}

// TestTransientClassification pins the retryability table the job engine
// relies on: which pipeline errors are worth another attempt against an
// operator ceiling, and which deterministically fail again.
func TestTransientClassification(t *testing.T) {
	ceiling := Limits{SimEvents: 1000}
	partial := &struct{}{}
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"marked transient", &TransientError{Err: errors.New("flaky")}, true},
		{"wrapped transient", fmt.Errorf("attempt: %w", &TransientError{Err: errors.New("flaky")}), true},
		{"guarded panic", &PanicError{Stage: "sim", NF: "fw", Value: "boom"}, true},
		{"deadline", context.DeadlineExceeded, true},
		{"canceled", context.Canceled, false},
		{"typed cancel wrapping Canceled", &CanceledError{Stage: "sim", NF: "fw", Err: context.Canceled}, false},
		{"typed cancel wrapping deadline", &CanceledError{Stage: "sim", NF: "fw", Err: context.DeadlineExceeded}, true},
		{"trip below ceiling with partial", &ExceededError{Resource: "sim-events", Limit: 100, Partial: partial}, true},
		{"trip at ceiling", &ExceededError{Resource: "sim-events", Limit: 1000, Partial: partial}, false},
		{"trip without partial", &ExceededError{Resource: "sim-events", Limit: 100}, false},
		{"trip on unlimited resource", &ExceededError{Resource: "sympaths-unknown", Limit: 100, Partial: partial}, false},
		{"plain error", errors.New("syntax error"), false},
	}
	for _, c := range cases {
		if got := Transient(c.err, ceiling); got != c.want {
			t.Errorf("%s: Transient = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestResourceLimitResolution checks the Resource-string → cap mapping,
// including safety defaults for the always-bounded dimensions and 0
// (unlimited) for the purely optional ones.
func TestResourceLimitResolution(t *testing.T) {
	set := Limits{SymExecSteps: 10, SymExecPaths: 20, SimSteps: 30, SimEvents: 40, FlowEntries: 50, DPIBytes: 60}
	cases := []struct {
		resource   string
		set, unset int64
	}{
		{"symexec-steps", 10, DefaultSymExecSteps},
		{"symexec-paths", 20, 0},
		{"sim-steps", 30, DefaultSimSteps},
		{"sim-events", 40, 0},
		{"trace-packets", 40, 0},
		{"flow-entries", 50, DefaultFlowEntries},
		{"dpi-bytes", 60, 0},
		{"no-such-resource", 0, 0},
	}
	for _, c := range cases {
		if got := set.ResourceLimit(c.resource); got != c.set {
			t.Errorf("%s with explicit limits = %d, want %d", c.resource, got, c.set)
		}
		if got := (Limits{}).ResourceLimit(c.resource); got != c.unset {
			t.Errorf("%s with zero limits = %d, want %d", c.resource, got, c.unset)
		}
	}
}
