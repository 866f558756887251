package jobs

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"clara/internal/budget"
)

func TestChaosNilInjectsNothing(t *testing.T) {
	var c *Chaos
	out, err := c.Do("k", 1, func() ([]byte, error) { return []byte("ran"), nil })
	if err != nil || string(out) != "ran" {
		t.Fatalf("nil chaos: got (%q, %v), want passthrough", out, err)
	}
}

func TestChaosFailAlwaysInjectsTransient(t *testing.T) {
	c := &Chaos{Fail: 1, Seed: 1}
	_, err := c.Do("key", 0, func() ([]byte, error) {
		t.Error("computation ran despite Fail=1")
		return nil, nil
	})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err %v does not match ErrInjected", err)
	}
	var te *budget.TransientError
	if !errors.As(err, &te) {
		t.Fatalf("err %T is not wrapped in budget.TransientError", err)
	}
	if !budget.Transient(err, budget.Limits{}) {
		t.Fatal("injected failure not classified transient")
	}
}

func TestChaosPanicInjectsGuardablePanic(t *testing.T) {
	c := &Chaos{Panic: 1, Seed: 1}
	_, err := budget.Guard1("test", "nf", func() ([]byte, error) {
		return c.Do("key", 0, func() ([]byte, error) { return nil, nil })
	})
	var pe *budget.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err %v (%T) is not a Guard1-recovered panic", err, err)
	}
}

func TestChaosDecisionsAreKeyedNotOrdered(t *testing.T) {
	// The same (seed, key, attempt) triple must make the same decision no
	// matter how many other Do calls happen around it.
	c1 := &Chaos{Fail: 0.5, Seed: 42}
	c2 := &Chaos{Fail: 0.5, Seed: 42}
	outcome := func(c *Chaos, key string, attempt int) bool {
		_, err := c.Do(key, attempt, func() ([]byte, error) { return nil, nil })
		return err != nil
	}
	var first []bool
	for i := 0; i < 64; i++ {
		first = append(first, outcome(c1, fmt.Sprintf("j-%06d", i), 1))
	}
	// Replay in reverse order with unrelated draws interleaved.
	for i := 63; i >= 0; i-- {
		outcome(c2, "noise", i)
		if got := outcome(c2, fmt.Sprintf("j-%06d", i), 1); got != first[i] {
			t.Fatalf("key j-%06d: decision flipped across replay order", i)
		}
	}
	// Sanity: a 0.5 rate over 64 keys should produce both outcomes.
	var fails int
	for _, f := range first {
		if f {
			fails++
		}
	}
	if fails == 0 || fails == 64 {
		t.Fatalf("degenerate fault pattern: %d/64 failures", fails)
	}
}

func TestChaosAttemptsDrawIndependently(t *testing.T) {
	c := &Chaos{Fail: 0.5, Seed: 7}
	differs := false
	for i := 0; i < 32 && !differs; i++ {
		key := fmt.Sprintf("k%d", i)
		_, e1 := c.Do(key, 1, func() ([]byte, error) { return nil, nil })
		_, e2 := c.Do(key, 2, func() ([]byte, error) { return nil, nil })
		differs = (e1 == nil) != (e2 == nil)
	}
	if !differs {
		t.Fatal("attempt number never changed the decision across 32 keys")
	}
}

func TestParseChaos(t *testing.T) {
	c, err := ParseChaos("fail=0.15, panic=0.05, delay=0.2, maxdelay=10ms, seed=42")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	want := Chaos{Fail: 0.15, Panic: 0.05, Delay: 0.2, MaxDelay: 10 * time.Millisecond, Seed: 42}
	if *c != want {
		t.Fatalf("got %+v, want %+v", *c, want)
	}
	if c, err := ParseChaos(""); c != nil || err != nil {
		t.Fatalf("empty spec: got (%v, %v), want (nil, nil)", c, err)
	}
	if c, err := ParseChaos("delay=0.5,seed=1"); err != nil || c.MaxDelay != 5*time.Millisecond {
		t.Fatalf("default maxdelay: got (%+v, %v)", c, err)
	}
	for _, bad := range []string{"fail=2", "fail=-0.1", "bogus=1", "fail", "maxdelay=xyz", "maxdelay=-1ms", "seed=abc"} {
		if _, err := ParseChaos(bad); err == nil {
			t.Errorf("spec %q: expected an error", bad)
		}
	}
}

func TestChaosDelayInjectsBoundedSleep(t *testing.T) {
	c := &Chaos{Delay: 1, MaxDelay: 5 * time.Millisecond, Seed: 3}
	start := time.Now()
	for i := 0; i < 8; i++ {
		if _, err := c.Do(fmt.Sprintf("d%d", i), 0, func() ([]byte, error) { return nil, nil }); err != nil {
			t.Fatalf("delay-only chaos returned error: %v", err)
		}
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("8 delays took %s; MaxDelay bound not respected", elapsed)
	}
}
