package jobs

import (
	"sync"
	"time"

	"clara/internal/obs"
)

// shedMinSamples is how many observations the latency window needs before
// its p99 is trusted.
const shedMinSamples = 16

// shedInterval is how often the latency window rolls forward. Between rolls
// the same windowed snapshot is reused, so a burst of Check calls costs one
// histogram scan per interval.
const shedInterval = time.Second

// ShedConfig parameterizes adaptive load shedding for job admission.
type ShedConfig struct {
	// P99 sheds when the windowed 99th-percentile latency exceeds it; 0
	// disables the latency signal.
	P99 time.Duration
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
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Shedder{cfg: cfg, hist: hist}
}

// Check reports whether the next request should be shed: the windowed p99
// latency, over at least shedMinSamples observations, exceeds P99.
func (s *Shedder) Check() bool {
	if s == nil || s.cfg.P99 <= 0 || s.hist == nil {
		return false
	}
	win := s.latencyWindow()
	return win.Count >= shedMinSamples && win.Quantile(0.99) > float64(s.cfg.P99)
}

// latencyWindow returns the histogram delta covering roughly the last
// shedInterval, rolling the window forward when it has aged out.
func (s *Shedder) latencyWindow() obs.HistSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.cfg.Now()
	if s.rolled.IsZero() || now.Sub(s.rolled) >= shedInterval {
		cur := s.hist.Snapshot()
		s.window = cur.Sub(s.prev)
		s.prev = cur
		s.rolled = now
	}
	return s.window
}
