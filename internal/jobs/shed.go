package jobs

import (
	"sync"
	"time"

	"clara/internal/obs"
)

// ShedConfig parameterizes adaptive load shedding for job admission.
type ShedConfig struct {
	// P99 sheds when the windowed 99th-percentile latency exceeds it; 0
	// disables the latency signal.
	P99 time.Duration
	// MinSamples is how many observations the latency window needs before
	// its p99 is trusted (default 16).
	MinSamples int
	// Interval is how often the latency window rolls forward (default 1s).
	// Between rolls the same windowed snapshot is reused, so a burst of
	// Check calls costs one histogram scan per interval.
	Interval time.Duration
	// Now is the clock (tests inject a fake; default time.Now).
	Now func() time.Time
}

// Shedder decides whether to reject new work before it enters the queue,
// on the windowed p99 latency of an obs.Histogram (sampled by diffing
// cumulative snapshots, so a bad spike ages out instead of latching the
// shedder open forever). The queue's length is the engine's own QueueDepth
// bound. Safe for concurrent use.
type Shedder struct {
	cfg  ShedConfig
	hist *obs.Histogram

	mu     sync.Mutex
	prev   obs.HistSnapshot
	window obs.HistSnapshot
	rolled time.Time
}

// NewShedder builds a Shedder. hist may be nil (disables the latency
// signal).
func NewShedder(cfg ShedConfig, hist *obs.Histogram) *Shedder {
	if cfg.MinSamples < 1 {
		cfg.MinSamples = 16
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Shedder{cfg: cfg, hist: hist}
}

// Check reports whether the next request should be shed, with the reason
// ("latency") and a Retry-After hint (1s, as for the engine's queue bound).
func (s *Shedder) Check() (shed bool, reason string, retryAfter time.Duration) {
	if s == nil {
		return false, "", 0
	}
	if s.cfg.P99 > 0 && s.hist != nil {
		win := s.latencyWindow()
		if win.Count >= int64(s.cfg.MinSamples) {
			if p99 := win.Quantile(0.99); p99 > float64(s.cfg.P99) {
				return true, "latency", time.Second
			}
		}
	}
	return false, "", 0
}

// latencyWindow returns the histogram delta covering roughly the last
// Interval, rolling the window forward when it has aged out.
func (s *Shedder) latencyWindow() obs.HistSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.cfg.Now()
	if s.rolled.IsZero() || now.Sub(s.rolled) >= s.cfg.Interval {
		cur := s.hist.Snapshot()
		s.window = cur.Sub(s.prev)
		s.prev = cur
		s.rolled = now
	}
	return s.window
}
