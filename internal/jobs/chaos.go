package jobs

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"clara/internal/budget"
)

// ErrInjected is the failure the chaos middleware injects. Tests and
// callers match it with errors.Is through the budget.TransientError wrapper
// every injected failure rides in.
var ErrInjected = errors.New("chaos: injected failure")

// Chaos is a deterministic fault-injection middleware for computations,
// the serving-layer sibling of nicsim.Faults: a configurable fraction of
// computations fail, stall, or panic, and a fixed seed reproduces the exact
// same fault pattern. Determinism comes from keying, not draw order — every
// decision derives from (Seed, key, attempt) alone, so concurrent
// computations racing each other never perturb one another's faults and a
// rerun with the same keys replays the same outcomes regardless of
// goroutine scheduling.
//
// A nil *Chaos injects nothing; the serving layer leaves it off unless the
// operator passes -chaos.
type Chaos struct {
	// Fail is the probability in [0,1] that a computation returns an
	// injected transient error instead of running.
	Fail float64
	// Panic is the probability in [0,1] that a computation panics (the
	// caller's budget.Guard1 boundary is what's under test).
	Panic float64
	// Delay is the probability in [0,1] that a computation stalls for a
	// uniform duration in [0, MaxDelay) before proceeding.
	Delay float64
	// MaxDelay bounds injected stalls; 0 disables delay injection.
	MaxDelay time.Duration
	// Seed fixes the fault pattern. Two Chaos values with equal seeds make
	// identical decisions for equal (key, attempt) pairs.
	Seed int64
}

// Validate checks the probability ranges.
func (c *Chaos) Validate() error {
	if c == nil {
		return nil
	}
	for _, p := range []struct {
		name string
		v    float64
	}{{"fail", c.Fail}, {"panic", c.Panic}, {"delay", c.Delay}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("chaos: %s rate %g outside [0,1]", p.name, p.v)
		}
	}
	if c.MaxDelay < 0 {
		return fmt.Errorf("chaos: negative maxdelay %s", c.MaxDelay)
	}
	return nil
}

// ParseChaos decodes a compact chaos spec such as
//
//	"fail=0.15,panic=0.05,delay=0.2,maxdelay=10ms,seed=42"
//
// An empty spec returns nil (no injection). Unknown keys are rejected.
func ParseChaos(spec string) (*Chaos, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	c := &Chaos{}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("chaos: bad field %q (want key=value)", kv)
		}
		key, val := strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1])
		switch key {
		case "fail", "panic", "delay":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos: field %q: %v", key, err)
			}
			switch key {
			case "fail":
				c.Fail = f
			case "panic":
				c.Panic = f
			case "delay":
				c.Delay = f
			}
		case "maxdelay":
			d, err := time.ParseDuration(val)
			if err != nil {
				return nil, fmt.Errorf("chaos: field maxdelay: %v", err)
			}
			c.MaxDelay = d
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos: field seed: %v", err)
			}
			c.Seed = n
		default:
			return nil, fmt.Errorf("chaos: unknown field %q (have fail, panic, delay, maxdelay, seed)", key)
		}
	}
	if c.Delay > 0 && c.MaxDelay == 0 {
		c.MaxDelay = 5 * time.Millisecond
	}
	return c, c.Validate()
}

// Do runs fn under chaos: depending on the decisions derived from
// (Seed, key, attempt) the computation may be delayed first, then replaced
// by an injected transient failure, a panic, or allowed to run. A nil
// receiver runs fn directly. Injected panics are deliberate — the caller is
// expected to hold a budget.Guard1 boundary around Do.
func (c *Chaos) Do(key string, attempt int, fn func() ([]byte, error)) ([]byte, error) {
	if c == nil {
		return fn()
	}
	r := newDecisionRNG(c.Seed, key, attempt)
	if c.Delay > 0 && c.MaxDelay > 0 && r.float() < c.Delay {
		time.Sleep(time.Duration(r.float() * float64(c.MaxDelay)))
	}
	if c.Fail > 0 && r.float() < c.Fail {
		return nil, &budget.TransientError{
			Err: fmt.Errorf("%w (key %q attempt %d)", ErrInjected, key, attempt),
		}
	}
	if c.Panic > 0 && r.float() < c.Panic {
		panic(fmt.Sprintf("chaos: injected panic (key %q attempt %d)", key, attempt))
	}
	return fn()
}

// decisionRNG is a tiny xorshift64 stream seeded per decision point. The
// derivation mirrors nicsim's: FNV-1a over the key folded through the
// splitmix64 finalizer, so related keys ("j-000001" vs "j-000002") land on
// unrelated streams.
type decisionRNG struct{ s uint64 }

const rngGamma = 0x9E3779B97F4A7C15

func newDecisionRNG(seed int64, key string, attempt int) *decisionRNG {
	s := mix64(mix64(uint64(seed)) ^ fnv64(key) ^ (uint64(attempt+1) * rngGamma))
	if s == 0 {
		// xorshift locks up on the all-zero state; substitute a fixed
		// nonzero one (same guard the simulator RNG carries).
		s = rngGamma
	}
	return &decisionRNG{s: s}
}

func (r *decisionRNG) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

// float returns a uniform float64 in [0,1).
func (r *decisionRNG) float() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// fnv64 is FNV-1a over s.
func fnv64(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// mix64 is the splitmix64 finalizer (see nicsim's seed derivations).
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
