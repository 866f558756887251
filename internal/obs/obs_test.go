package obs

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSinkIsNoOp(t *testing.T) {
	var m *Metrics
	if got := From(context.Background()); got != nil {
		t.Fatalf("From(bare ctx) = %v, want nil", got)
	}
	// Every accessor and recorder must tolerate nil without panicking.
	m.Counter("clara_x_total").Add(3)
	m.Counter("clara_x_total", "k", "v").Inc()
	m.Gauge("clara_g").Set(7)
	m.Histogram("clara_h_nanos").Observe(100)
	m.Histogram("clara_h_nanos").ObserveSince(time.Now())
	m.StageTimer("map")()
	if err := m.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatalf("nil WritePrometheus: %v", err)
	}
	if v := m.Counter("clara_x_total").Value(); v != 0 {
		t.Fatalf("nil counter value = %d", v)
	}
	if !math.IsNaN(m.Histogram("clara_h_nanos").Snapshot().Quantile(0.5)) {
		t.Fatal("nil histogram quantile should be NaN")
	}
}

func TestCounterGaugeRoundTrip(t *testing.T) {
	m := New()
	ctx := With(context.Background(), m)
	if From(ctx) != m {
		t.Fatal("From(With(ctx, m)) != m")
	}
	c := m.Counter("clara_packets_total", "nf", "lpm")
	c.Add(41)
	c.Inc()
	if got := m.Counter("clara_packets_total", "nf", "lpm").Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	// Different labels are different series.
	if got := m.Counter("clara_packets_total", "nf", "nat").Value(); got != 0 {
		t.Fatalf("label isolation broken: %d", got)
	}
	m.Gauge("clara_budget_steps").Set(100)
	m.Gauge("clara_budget_steps").Set(90)
	if got := m.Gauge("clara_budget_steps").Value(); got != 90 {
		t.Fatalf("gauge = %d, want 90", got)
	}
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	m := New()
	h := m.Histogram("clara_stage_nanos", "stage", "map")
	for _, v := range []int64{1, 2, 3, 100, 1000, 1 << 20} {
		h.Observe(v)
	}
	h.Observe(-5) // clamps to 0
	s := h.Snapshot()
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	if s.Sum != 1+2+3+100+1000+(1<<20) {
		t.Fatalf("sum = %d", s.Sum)
	}
	q := s.Quantile(0.5)
	if math.IsNaN(q) || q < 0 || q > 200 {
		t.Fatalf("median estimate %v implausible", q)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	m := New()
	m.Counter("clara_enum_cache_hits_total").Add(5)
	m.Counter("clara_stage_calls_total", "stage", "map").Add(2)
	m.Counter("clara_stage_calls_total", "stage", "predict").Add(3)
	m.Gauge("clara_budget_symexec_steps").Set(1234)
	m.Histogram("clara_stage_nanos", "stage", "map").Observe(1500)

	var b strings.Builder
	if err := m.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE clara_enum_cache_hits_total counter\n",
		"clara_enum_cache_hits_total 5\n",
		`clara_stage_calls_total{stage="map"} 2`,
		`clara_stage_calls_total{stage="predict"} 3`,
		"# TYPE clara_budget_symexec_steps gauge\n",
		"clara_budget_symexec_steps 1234\n",
		"# TYPE clara_stage_nanos histogram\n",
		`clara_stage_nanos_sum{stage="map"} 1500`,
		`clara_stage_nanos_count{stage="map"} 1`,
		`le="+Inf"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// The TYPE header for a multi-series family must appear exactly once.
	if n := strings.Count(out, "# TYPE clara_stage_calls_total counter"); n != 1 {
		t.Errorf("TYPE header appears %d times", n)
	}
	if err := checkPromText(out); err != nil {
		t.Errorf("exposition not parseable: %v", err)
	}
}

// checkPromText is a minimal Prometheus text-format validator: every
// non-comment line must be `name[{labels}] <int>` with balanced braces and
// quoted label values.
func checkPromText(out string) error {
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return errLine(line, "no value separator")
		}
		name, val := line[:sp], line[sp+1:]
		if val == "" {
			return errLine(line, "empty value")
		}
		for _, r := range val {
			if (r < '0' || r > '9') && r != '-' && r != '+' && r != '.' && r != 'e' && r != 'I' && r != 'n' && r != 'f' {
				return errLine(line, "non-numeric value")
			}
		}
		if open := strings.IndexByte(name, '{'); open >= 0 {
			if !strings.HasSuffix(name, "}") {
				return errLine(line, "unbalanced braces")
			}
			inner := name[open+1 : len(name)-1]
			for _, pair := range strings.Split(inner, ",") {
				eq := strings.IndexByte(pair, '=')
				if eq < 0 || !strings.HasPrefix(pair[eq+1:], `"`) || !strings.HasSuffix(pair, `"`) {
					return errLine(line, "bad label pair "+pair)
				}
			}
		}
	}
	return nil
}

type lineError struct{ line, why string }

func (e *lineError) Error() string { return e.why + ": " + e.line }

func errLine(line, why string) error { return &lineError{line, why} }

func TestConcurrentRecording(t *testing.T) {
	m := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := m.Counter("clara_total")
			h := m.Histogram("clara_nanos")
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := m.Counter("clara_total").Value(); got != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", got)
	}
	if got := m.Histogram("clara_nanos").Snapshot().Count; got != 8000 {
		t.Fatalf("concurrent histogram count = %d, want 8000", got)
	}
}

// BenchmarkNilSinkCounter proves the disabled fast path costs (almost)
// nothing: a nil registry's Counter().Add() must be a few nanoseconds and
// zero allocations.
func BenchmarkNilSinkCounter(b *testing.B) {
	var m *Metrics
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Counter("clara_x_total").Add(1)
	}
}

// BenchmarkNilSinkStageTimer measures the per-stage overhead Clara's
// ...Context methods pay when observability is off.
func BenchmarkNilSinkStageTimer(b *testing.B) {
	var m *Metrics
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.StageTimer("map")()
	}
}

// BenchmarkEnabledHistogram is the enabled-path cost with a hoisted handle —
// the pattern hot loops use.
func BenchmarkEnabledHistogram(b *testing.B) {
	m := New()
	h := m.Histogram("clara_nanos")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

// TestHistogramZeroAndNegativeSamples pins the bucketing of the two edge
// observations: zero lands in bucket 0 (le="0") and negatives clamp to zero
// rather than wrapping to the top bucket via the uint64 conversion.
func TestHistogramZeroAndNegativeSamples(t *testing.T) {
	m := New()
	h := m.Histogram("edge_nanos")
	h.Observe(0)
	h.Observe(-5)
	h.Observe(math.MinInt64)
	if got := h.Snapshot().Count; got != 3 {
		t.Fatalf("count = %d, want 3", got)
	}
	if got := h.Snapshot().Sum; got != 0 {
		t.Fatalf("sum = %d, want 0 (negatives clamp)", got)
	}
	var b strings.Builder
	if err := m.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `edge_nanos_bucket{le="0"} 3`) {
		t.Errorf("zero/negative samples not all in the le=\"0\" bucket:\n%s", out)
	}
	if q := h.Snapshot().Quantile(0.5); q != 0 {
		t.Errorf("Quantile(0.5) over zeros = %v, want 0", q)
	}
}

// TestHistogramHugeSampleExposition is the regression for the duplicate
// +Inf bucket: an observation ≥ 2^62 lands in bucket 63, whose le value
// must be the finite 2^63-1, leaving exactly one le="+Inf" line.
func TestHistogramHugeSampleExposition(t *testing.T) {
	m := New()
	h := m.Histogram("huge_nanos")
	h.Observe(math.MaxInt64)
	h.Observe(1)
	var b strings.Builder
	if err := m.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if n := strings.Count(out, `le="+Inf"`); n != 1 {
		t.Errorf("want exactly one +Inf bucket line, got %d:\n%s", n, out)
	}
	if !strings.Contains(out, `le="9223372036854775807"`) {
		t.Errorf("bucket 63 should expose its finite bound 2^63-1:\n%s", out)
	}
	if q := h.Snapshot().Quantile(1); math.IsNaN(q) || q < 0 {
		t.Errorf("Quantile(1) with a max-int64 sample = %v", q)
	}
}

// TestHistogramSnapshotWindow exercises the Snapshot/Sub machinery the load
// shedder builds its windowed p99 on: a diff of two snapshots must describe
// only the observations between them, and diffing against a foreign
// snapshot clamps instead of going negative.
func TestHistogramSnapshotWindow(t *testing.T) {
	m := New()
	h := m.Histogram("clara_http_request_nanos", "endpoint", "jobs")
	for i := 0; i < 100; i++ {
		h.Observe(1 << 20) // a slow first epoch, ~1ms
	}
	prev := h.Snapshot()
	for i := 0; i < 100; i++ {
		h.Observe(100) // a fast second epoch
	}
	win := h.Snapshot().Sub(prev)
	if win.Count != 100 {
		t.Fatalf("window count = %d, want the 100 post-snapshot observations", win.Count)
	}
	if q := win.Quantile(0.99); math.IsNaN(q) || q >= 1<<20 {
		t.Fatalf("windowed p99 = %v still sees the slow epoch", q)
	}
	// The cumulative view still covers both epochs.
	if q := h.Snapshot().Quantile(0.99); q < 1<<19 {
		t.Fatalf("cumulative p99 = %v lost the slow epoch", q)
	}
	// An empty window has no quantile.
	cur := h.Snapshot()
	if q := cur.Sub(cur).Quantile(0.99); !math.IsNaN(q) {
		t.Fatalf("empty window quantile = %v, want NaN", q)
	}
	// Sub against an unrelated, larger snapshot clamps to zero.
	big := HistSnapshot{Count: 1 << 30, Sum: 1 << 40}
	d := h.Snapshot().Sub(big)
	if d.Count != 0 || d.Sum != 0 {
		t.Fatalf("negative delta leaked through: %+v", d)
	}
}
