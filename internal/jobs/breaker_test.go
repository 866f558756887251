package jobs

import (
	"testing"
	"time"
)

// fakeClock is a settable time source for breaker/shedder tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }

func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestBreaker(clk *fakeClock, transitions *[]string) *Breaker {
	return NewBreaker(BreakerConfig{
		Window:      8,
		MinSamples:  4,
		FailureRate: 0.5,
		Cooldown:    time.Second,
		Probes:      1,
		Now:         clk.now,
		OnTransition: func(from, to string) {
			if transitions != nil {
				*transitions = append(*transitions, from+">"+to)
			}
		},
	})
}

func TestBreakerTripsAtFailureRate(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := newTestBreaker(clk, nil)
	// Three failures among three successes: rate 0.5 at MinSamples=4 would
	// trip, so interleave to stay just below until the threshold crossing.
	b.Record(false)
	b.Record(false)
	b.Record(false)
	b.Record(true)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state %s after 1/4 failures, want closed", got)
	}
	b.Record(true)
	b.Record(true)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state %s after 3/6 failures, want open", got)
	}
	ok, retry := b.Allow()
	if ok {
		t.Fatal("open breaker allowed a request")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retryAfter %s, want within (0, cooldown]", retry)
	}
}

func TestBreakerBelowMinSamplesNeverTrips(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := newTestBreaker(clk, nil)
	b.Record(true)
	b.Record(true)
	b.Record(true)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state %s on 3 samples with MinSamples=4, want closed", got)
	}
}

func TestBreakerHalfOpenProbeRecovers(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	var transitions []string
	b := newTestBreaker(clk, &transitions)
	for i := 0; i < 4; i++ {
		b.Record(true)
	}
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state %s, want open", got)
	}
	// Cooldown not yet elapsed: still rejecting.
	clk.advance(500 * time.Millisecond)
	if ok, _ := b.Allow(); ok {
		t.Fatal("breaker allowed before cooldown elapsed")
	}
	// Cooldown elapsed: exactly Probes=1 request gets through.
	clk.advance(600 * time.Millisecond)
	if ok, _ := b.Allow(); !ok {
		t.Fatal("breaker rejected the half-open probe")
	}
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state %s, want half-open", got)
	}
	if ok, retry := b.Allow(); ok || retry <= 0 {
		t.Fatalf("second concurrent probe: ok=%v retry=%s, want rejected with hint", ok, retry)
	}
	b.Record(false)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state %s after successful probe, want closed", got)
	}
	want := []string{"closed>open", "open>half-open", "half-open>closed"}
	if len(transitions) != len(want) {
		t.Fatalf("transitions %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions %v, want %v", transitions, want)
		}
	}
}

func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := newTestBreaker(clk, nil)
	for i := 0; i < 4; i++ {
		b.Record(true)
	}
	clk.advance(2 * time.Second)
	if ok, _ := b.Allow(); !ok {
		t.Fatal("breaker rejected the half-open probe")
	}
	b.Record(true)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state %s after failed probe, want open", got)
	}
	// A fresh cooldown applies from the failed probe.
	if ok, _ := b.Allow(); ok {
		t.Fatal("breaker allowed immediately after a failed probe")
	}
	clk.advance(2 * time.Second)
	if ok, _ := b.Allow(); !ok {
		t.Fatal("breaker rejected the next probe after another cooldown")
	}
}

func TestBreakerIgnoresStragglersWhileOpen(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := newTestBreaker(clk, nil)
	for i := 0; i < 4; i++ {
		b.Record(true)
	}
	// In-flight requests from before the trip finishing now must not
	// disturb the open state or the eventual half-open accounting.
	b.Record(false)
	b.Record(true)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state %s, want open", got)
	}
	clk.advance(2 * time.Second)
	if ok, _ := b.Allow(); !ok {
		t.Fatal("breaker rejected probe after cooldown")
	}
	b.Record(false)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state %s, want closed", got)
	}
}

func TestBreakerWindowSlides(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := newTestBreaker(clk, nil)
	// Fill the window (size 8) with failures below the trip threshold is
	// impossible — so fill with successes, then verify old outcomes age out:
	// 8 successes, then 3 failures = rate 3/8 < 0.5; 5 more failures would
	// push old successes out and trip at 8/8.
	for i := 0; i < 8; i++ {
		b.Record(false)
	}
	for i := 0; i < 3; i++ {
		b.Record(true)
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state %s at windowed rate 3/8, want closed", got)
	}
	b.Record(true)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state %s at windowed rate 4/8, want open", got)
	}
}

// TestBreakerReleaseFreesHalfOpenProbe: a half-open probe that records no
// outcome gives its slot back, so the next request can probe; Release in
// the closed state changes nothing.
func TestBreakerReleaseFreesHalfOpenProbe(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := newTestBreaker(clk, nil)
	b.Release()
	for i := 0; i < 4; i++ {
		b.Record(true)
	}
	clk.advance(2 * time.Second)
	if ok, _ := b.Allow(); !ok {
		t.Fatal("breaker rejected the half-open probe")
	}
	if ok, _ := b.Allow(); ok {
		t.Fatal("breaker admitted a second probe while the first is out")
	}
	b.Release()
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state %s after a released probe, want half-open", got)
	}
	if ok, _ := b.Allow(); !ok {
		t.Fatal("released probe slot was not given back")
	}
	b.Record(false)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state %s after a successful probe, want closed", got)
	}
}
