// Package obs is Clara's observability layer: named counters, gauges and
// latency histograms attached to the analysis context, plus Prometheus text
// exposition. Clara's pitch is performance *clarity*, so its own pipeline
// must not be a black box — every stage (enumeration, mapping, prediction,
// simulation, microbenchmarking) records where its time and budget went.
//
// The layer is built to cost nothing when disabled. A nil *Metrics is a
// valid sink: From returns nil on a bare context, every method on a nil
// *Metrics/*Counter/*Gauge/*Histogram is a no-op, and the no-op paths make
// no allocations (verified by BenchmarkNilSink* and the BenchmarkPredict
// guard in the root package). Instrumentation sites therefore never branch
// on an "enabled" flag — they just call through.
//
// When enabled, hot-path friendliness comes from two rules: metric handles
// are cheap to hoist (look up the series once, then Add/Observe via atomics),
// and histograms use fixed power-of-two buckets over int64 values, so no
// float is boxed and no bucket slice is allocated per event.
//
// Metric naming scheme (see DESIGN.md "Observability"):
//
//	clara_<subsystem>_<what>_<unit-suffix>
//
// e.g. clara_stage_nanos (histogram, label stage=...), clara_enum_cache_hits_total
// (counter), clara_sim_packets_total (counter), clara_budget_symexec_steps
// (gauge snapshot). Counters end in _total; histograms carry their unit.
package obs

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing int64.
type Counter struct{ v atomic.Int64 }

// Add increments the counter; a nil receiver is a no-op.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 (last write wins).
type Gauge struct{ v atomic.Int64 }

// Set stores the value; a nil receiver is a no-op.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count: bucket i holds observations whose
// value v satisfies bits.Len64(v) == i, i.e. upper bound 2^i - 1. 64 buckets
// cover every non-negative int64 without per-histogram configuration.
const histBuckets = 65

// Histogram is a fixed log2-bucket latency/size distribution. Observations
// are int64 (nanoseconds, cycles, counts); buckets, count and sum are
// atomics, so concurrent observers never lock and never allocate.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value; negatives clamp to 0. Nil receiver is a no-op.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveSince records the nanoseconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Nanoseconds())
}

// series identifies one labeled time series within a family.
type series struct {
	family string // metric family name, e.g. clara_stage_nanos
	labels string // rendered label pairs, e.g. `stage="map"`, "" when none
}

// Metrics is a registry of named series. The zero value is not usable; call
// New. A nil *Metrics is the disabled sink: every accessor returns nil and
// every recording method on those nils is a no-op.
type Metrics struct {
	mu       sync.Mutex
	counters map[series]*Counter
	gauges   map[series]*Gauge
	hists    map[series]*Histogram
}

// New returns an empty, enabled registry.
func New() *Metrics {
	return &Metrics{
		counters: map[series]*Counter{},
		gauges:   map[series]*Gauge{},
		hists:    map[series]*Histogram{},
	}
}

type ctxKey struct{}

// With returns a context carrying the registry; pipeline stages downstream
// record into it.
func With(ctx context.Context, m *Metrics) context.Context {
	return context.WithValue(ctx, ctxKey{}, m)
}

// From extracts the registry carried by ctx, or nil when observability is
// disabled. The nil return is the fast path: all recording through it
// vanishes.
func From(ctx context.Context) *Metrics {
	m, _ := ctx.Value(ctxKey{}).(*Metrics)
	return m
}

// seriesKey renders the label pairs ("k1", "v1", "k2", "v2", ...) into the
// canonical exposition form. Odd trailing labels are ignored.
func seriesKey(family string, labels []string) series {
	if len(labels) < 2 {
		return series{family: family}
	}
	var b strings.Builder
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
	}
	return series{family: family, labels: b.String()}
}

// Counter returns the counter for the family + label pairs, creating it on
// first use. Returns nil (the no-op counter) on a nil registry.
func (m *Metrics) Counter(family string, labels ...string) *Counter {
	if m == nil {
		return nil
	}
	k := seriesKey(family, labels)
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.counters[k]
	if !ok {
		c = &Counter{}
		m.counters[k] = c
	}
	return c
}

// Gauge returns the gauge for the family + label pairs, creating it on first
// use. Returns nil on a nil registry.
func (m *Metrics) Gauge(family string, labels ...string) *Gauge {
	if m == nil {
		return nil
	}
	k := seriesKey(family, labels)
	m.mu.Lock()
	defer m.mu.Unlock()
	g, ok := m.gauges[k]
	if !ok {
		g = &Gauge{}
		m.gauges[k] = g
	}
	return g
}

// Histogram returns the histogram for the family + label pairs, creating it
// on first use. Returns nil on a nil registry.
func (m *Metrics) Histogram(family string, labels ...string) *Histogram {
	if m == nil {
		return nil
	}
	k := seriesKey(family, labels)
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.hists[k]
	if !ok {
		h = &Histogram{}
		m.hists[k] = h
	}
	return h
}

// StageTimer starts timing a pipeline stage and returns the func that
// records the elapsed wall time into clara_stage_nanos{stage=...}. On a nil
// registry it returns a shared no-op, so the disabled path allocates
// nothing.
func (m *Metrics) StageTimer(stage string) func() {
	if m == nil {
		return nopFunc
	}
	h := m.Histogram("clara_stage_nanos", "stage", stage)
	start := time.Now()
	return func() { h.ObserveSince(start) }
}

func nopFunc() {}

// WritePrometheus renders every series in Prometheus text exposition format
// (sorted, with # TYPE headers; histograms emit cumulative _bucket/_sum/
// _count series). A nil registry writes nothing.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	counters := make(map[series]int64, len(m.counters))
	for k, c := range m.counters {
		counters[k] = c.Value()
	}
	gauges := make(map[series]int64, len(m.gauges))
	for k, g := range m.gauges {
		gauges[k] = g.Value()
	}
	type histSnap struct {
		count, sum int64
		buckets    [histBuckets]int64
	}
	hists := make(map[series]histSnap, len(m.hists))
	for k, h := range m.hists {
		s := histSnap{count: h.count.Load(), sum: h.sum.Load()}
		for i := range h.buckets {
			s.buckets[i] = h.buckets[i].Load()
		}
		hists[k] = s
	}
	m.mu.Unlock()

	var b strings.Builder
	writeFamily := func(kind string, vals map[series]int64) {
		keys := make([]series, 0, len(vals))
		for k := range vals {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].family != keys[j].family {
				return keys[i].family < keys[j].family
			}
			return keys[i].labels < keys[j].labels
		})
		lastFamily := ""
		for _, k := range keys {
			if k.family != lastFamily {
				fmt.Fprintf(&b, "# TYPE %s %s\n", k.family, kind)
				lastFamily = k.family
			}
			if k.labels == "" {
				fmt.Fprintf(&b, "%s %d\n", k.family, vals[k])
			} else {
				fmt.Fprintf(&b, "%s{%s} %d\n", k.family, k.labels, vals[k])
			}
		}
	}
	writeFamily("counter", counters)
	writeFamily("gauge", gauges)

	hkeys := make([]series, 0, len(hists))
	for k := range hists {
		hkeys = append(hkeys, k)
	}
	sort.Slice(hkeys, func(i, j int) bool {
		if hkeys[i].family != hkeys[j].family {
			return hkeys[i].family < hkeys[j].family
		}
		return hkeys[i].labels < hkeys[j].labels
	})
	lastFamily := ""
	for _, k := range hkeys {
		h := hists[k]
		if k.family != lastFamily {
			fmt.Fprintf(&b, "# TYPE %s histogram\n", k.family)
			lastFamily = k.family
		}
		join := func(extra string) string {
			if k.labels == "" {
				return extra
			}
			if extra == "" {
				return k.labels
			}
			return k.labels + "," + extra
		}
		// Cumulative buckets; only emit up to the highest non-empty bucket,
		// then +Inf, keeping the exposition compact but valid.
		top := -1
		for i := histBuckets - 1; i >= 0; i-- {
			if h.buckets[i] > 0 {
				top = i
				break
			}
		}
		cum := int64(0)
		for i := 0; i <= top; i++ {
			cum += h.buckets[i]
			le := upperBound(i)
			fmt.Fprintf(&b, "%s_bucket{%s} %d\n", k.family, join(fmt.Sprintf("le=%q", le)), cum)
		}
		fmt.Fprintf(&b, "%s_bucket{%s} %d\n", k.family, join(`le="+Inf"`), h.count)
		if k.labels == "" {
			fmt.Fprintf(&b, "%s_sum %d\n", k.family, h.sum)
			fmt.Fprintf(&b, "%s_count %d\n", k.family, h.count)
		} else {
			fmt.Fprintf(&b, "%s_sum{%s} %d\n", k.family, k.labels, h.sum)
			fmt.Fprintf(&b, "%s_count{%s} %d\n", k.family, k.labels, h.count)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// upperBound renders bucket i's inclusive upper bound (2^i - 1) as the
// Prometheus le= value. Bucket 63 (values in [2^62, 2^63-1]) has the finite
// bound 2^63-1 — rendering it "+Inf" would duplicate the final +Inf bucket
// line for any histogram holding a sample ≥ 2^62, which is invalid
// exposition. Bucket 64 is unreachable: observations are non-negative
// int64s, whose bit length never exceeds 63.
func upperBound(i int) string {
	if i >= 64 {
		return "+Inf"
	}
	return fmt.Sprintf("%d", (uint64(1)<<uint(i))-1)
}

// HistSnapshot is a point-in-time copy of a histogram's counts. Histograms
// are cumulative over the process lifetime; windowed views — "p99 over the
// last second", the signal adaptive load shedding needs — come from diffing
// two snapshots with Sub.
type HistSnapshot struct {
	Count, Sum int64
	Buckets    [histBuckets]int64
}

// Snapshot copies the histogram's current counts (zero snapshot on nil).
// The copy is not atomic across buckets; concurrent observers can leave a
// snapshot momentarily off by the in-flight observations, which windowed
// quantile estimation tolerates.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Sub returns the observations recorded after prev: the window between two
// snapshots of the same histogram. Negative deltas (prev from a different
// histogram, or torn reads) clamp to zero.
func (s HistSnapshot) Sub(prev HistSnapshot) HistSnapshot {
	var d HistSnapshot
	if n := s.Count - prev.Count; n > 0 {
		d.Count = n
	}
	if n := s.Sum - prev.Sum; n > 0 {
		d.Sum = n
	}
	for i := range s.Buckets {
		if n := s.Buckets[i] - prev.Buckets[i]; n > 0 {
			d.Buckets[i] = n
		}
	}
	return d
}

// Quantile estimates the q-th (0..1) quantile of the snapshot by
// log-linear interpolation inside the winning bucket — good enough for
// operator-facing summaries; exact values need the raw events. NaN on an
// empty snapshot or out-of-range q.
func (s HistSnapshot) Quantile(q float64) float64 {
	if q < 0 || q > 1 {
		return math.NaN()
	}
	total := s.Count
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	cum := int64(0)
	for i := 0; i < histBuckets; i++ {
		n := s.Buckets[i]
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			lo := float64(0)
			if i > 0 {
				lo = float64(uint64(1) << uint(i-1))
			}
			// 1<<64 overflows uint64; bucket 64 is unreachable for int64
			// observations, but keep the guard total.
			hi := 2 * lo
			if i < 64 {
				hi = float64(uint64(1)<<uint(i)) - 1
			}
			frac := (rank - float64(cum)) / float64(n)
			return lo + frac*(hi-lo)
		}
		cum += n
	}
	return math.NaN()
}
