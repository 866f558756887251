package jobs

import (
	"sync"
	"time"
)

// Breaker states. A breaker is closed (traffic flows, outcomes are
// recorded into a sliding window), open (traffic is rejected until a
// cooldown passes), or half-open (a limited number of probes are admitted;
// their outcomes decide between closing and re-opening).
const (
	BreakerClosed   = "closed"
	BreakerOpen     = "open"
	BreakerHalfOpen = "half-open"
)

// BreakerConfig parameterizes a Breaker. The zero value selects the
// documented defaults.
type BreakerConfig struct {
	// Window is the number of recent outcomes the failure rate is computed
	// over (default 32).
	Window int
	// MinSamples gates the trip decision: the rate is not meaningful until
	// this many outcomes fill the window (default 8).
	MinSamples int
	// FailureRate is the windowed failure fraction at or above which the
	// breaker opens (default 0.5).
	FailureRate float64
	// Cooldown is how long an open breaker rejects before admitting
	// half-open probes (default 5s).
	Cooldown time.Duration
	// Probes is how many concurrent half-open probes are admitted, and how
	// many must succeed to close (default 1).
	Probes int
	// Now is the clock (tests inject a fake; default time.Now).
	Now func() time.Time
	// OnTransition observes state changes (metrics). It is called with the
	// breaker's lock held and must not call back into the breaker.
	OnTransition func(from, to string)
}

// Breaker is a failure-rate-windowed circuit breaker: the overload valve
// in front of an endpoint whose computations have started failing. Instead
// of queueing doomed work behind a sick dependency, callers ask Allow
// first and shed immediately (with a Retry-After hint) while the breaker
// is open. All methods are safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    string
	ring     []bool // true = failure
	idx      int
	filled   int
	fails    int
	openedAt time.Time
	// half-open accounting: probes admitted and probe successes so far.
	probesOut int
	probeOK   int
}

// NewBreaker builds a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Window < 1 {
		cfg.Window = 32
	}
	if cfg.MinSamples < 1 {
		cfg.MinSamples = 8
	}
	if cfg.MinSamples > cfg.Window {
		cfg.MinSamples = cfg.Window
	}
	if cfg.FailureRate <= 0 {
		cfg.FailureRate = 0.5
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 5 * time.Second
	}
	if cfg.Probes < 1 {
		cfg.Probes = 1
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Breaker{cfg: cfg, state: BreakerClosed, ring: make([]bool, cfg.Window)}
}

// Allow reports whether a request may proceed. When it may not, retryAfter
// hints how long the caller should tell its client to wait (the remaining
// cooldown, or one full cooldown when half-open probes are saturated).
func (b *Breaker) Allow() (ok bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true, 0
	case BreakerOpen:
		since := b.cfg.Now().Sub(b.openedAt)
		if since < b.cfg.Cooldown {
			return false, b.cfg.Cooldown - since
		}
		b.transition(BreakerHalfOpen)
		b.probesOut, b.probeOK = 1, 0
		return true, 0
	default: // half-open
		if b.probesOut < b.cfg.Probes {
			b.probesOut++
			return true, 0
		}
		return false, b.cfg.Cooldown
	}
}

// Record feeds one outcome back. Closed: the outcome enters the sliding
// window and may trip the breaker. Half-open: a failure re-opens
// immediately, enough successes close. Open: stragglers from before the
// trip are ignored.
func (b *Breaker) Record(failure bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		if b.filled == len(b.ring) {
			if b.ring[b.idx] {
				b.fails--
			}
		} else {
			b.filled++
		}
		b.ring[b.idx] = failure
		if failure {
			b.fails++
		}
		b.idx = (b.idx + 1) % len(b.ring)
		if b.filled >= b.cfg.MinSamples &&
			float64(b.fails)/float64(b.filled) >= b.cfg.FailureRate {
			b.trip()
		}
	case BreakerHalfOpen:
		if failure {
			b.trip()
			return
		}
		b.probeOK++
		if b.probeOK >= b.cfg.Probes {
			b.reset()
			b.transition(BreakerClosed)
		}
	}
}

// Release gives back an admission that will record no outcome, because
// its request was answered without a computation running. A half-open
// breaker frees the probe slot, so it cannot stick with every slot taken.
func (b *Breaker) Release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen && b.probesOut > 0 {
		b.probesOut--
	}
}

// State reports "closed", "open" or "half-open".
func (b *Breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// trip opens the breaker and clears the window (locked).
func (b *Breaker) trip() {
	b.reset()
	b.transition(BreakerOpen)
	b.openedAt = b.cfg.Now()
}

// reset clears the window and probe accounting (locked).
func (b *Breaker) reset() {
	for i := range b.ring {
		b.ring[i] = false
	}
	b.idx, b.filled, b.fails = 0, 0, 0
	b.probesOut, b.probeOK = 0, 0
}

func (b *Breaker) transition(to string) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	if b.cfg.OnTransition != nil {
		b.cfg.OnTransition(from, to)
	}
}
