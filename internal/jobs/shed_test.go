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
		P99: time.Duration(1 << 12), // ~4µs in histogram value space
		Now: clk.now,
	}, hist)

	// Slow observations: p99 far above the threshold.
	for i := 0; i < shedMinSamples; i++ {
		hist.Observe(1 << 20)
	}
	if !s.Check() {
		t.Fatal("no latency shed on a window of slow samples")
	}

	// One interval later with only fast observations in the new window the
	// shedder must recover, even though the cumulative histogram still
	// holds the old spike.
	clk.advance(shedInterval)
	if s.Check() {
		// First roll after the spike diffs against the pre-spike snapshot;
		// the window still contains the slow samples.
		clk.advance(shedInterval)
	}
	for i := 0; i < shedMinSamples; i++ {
		hist.Observe(1 << 4)
	}
	clk.advance(shedInterval)
	if s.Check() {
		t.Fatal("still shedding after the slow window aged out")
	}
}

func TestShedderTooFewSamplesStaysOpen(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	hist := &obs.Histogram{}
	s := NewShedder(ShedConfig{P99: 1, Now: clk.now}, hist)
	for i := 0; i < shedMinSamples-1; i++ {
		hist.Observe(1 << 30)
	}
	if s.Check() {
		t.Fatalf("shed on a window of %d samples, below %d", shedMinSamples-1, shedMinSamples)
	}
	// The next window holds shedMinSamples slow samples: now it sheds.
	clk.advance(shedInterval)
	for i := 0; i < shedMinSamples; i++ {
		hist.Observe(1 << 30)
	}
	if !s.Check() {
		t.Fatalf("no shed on a window of %d slow samples", shedMinSamples)
	}
}

func TestShedderNilIsInert(t *testing.T) {
	var s *Shedder
	if s.Check() {
		t.Fatal("nil shedder shed")
	}
	s2 := NewShedder(ShedConfig{}, nil)
	if s2.Check() {
		t.Fatal("shedder with no signals shed")
	}
}
