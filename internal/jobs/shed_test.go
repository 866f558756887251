package jobs

import (
	"testing"
	"time"

	"clara/internal/obs"
)

func TestShedderLatencySignalIsWindowed(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	hist := &obs.Histogram{}
	s := NewShedder(ShedConfig{
		P99:        time.Duration(1 << 12), // ~4µs in histogram value space
		MinSamples: 4,
		Interval:   time.Second,
		Now:        clk.now,
	}, hist)

	// Slow observations: p99 far above the threshold.
	for i := 0; i < 32; i++ {
		hist.Observe(1 << 20)
	}
	if shed, reason, _ := s.Check(); !shed || reason != "latency" {
		t.Fatalf("got (%v, %q), want latency shed", shed, reason)
	}

	// One interval later with only fast observations in the new window the
	// shedder must recover, even though the cumulative histogram still
	// holds the old spike.
	clk.advance(time.Second)
	if shed, _, _ := s.Check(); shed {
		// First roll after the spike diffs against the pre-spike snapshot;
		// the window still contains the slow samples.
		clk.advance(time.Second)
	}
	for i := 0; i < 32; i++ {
		hist.Observe(1 << 4)
	}
	clk.advance(time.Second)
	if shed, reason, _ := s.Check(); shed {
		t.Fatalf("still shedding (%q) after the slow window aged out", reason)
	}
}

func TestShedderTooFewSamplesStaysOpen(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	hist := &obs.Histogram{}
	s := NewShedder(ShedConfig{P99: 1, MinSamples: 16, Now: clk.now}, hist)
	for i := 0; i < 8; i++ {
		hist.Observe(1 << 30)
	}
	if shed, _, _ := s.Check(); shed {
		t.Fatal("shed on a window below MinSamples")
	}
}

func TestShedderNilIsInert(t *testing.T) {
	var s *Shedder
	if shed, _, _ := s.Check(); shed {
		t.Fatal("nil shedder shed")
	}
	s2 := NewShedder(ShedConfig{}, nil)
	if shed, _, _ := s2.Check(); shed {
		t.Fatal("shedder with no signals shed")
	}
}
