package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"time"
)

// An untraced closed-loop run (advise, simulate) measures in measureParts
// processes, one after another, each setting up and measuring for an equal
// share of the run's seconds, and pools the calls and set-ups of all of
// them. On a shared host a process sometimes runs its whole life slower than
// another on identical work; with several processes one slow process moves
// the pooled quantiles less.
const measureParts = 3

// round is one round of a closed-loop pass: every simulate case once, or one
// never-seen source of every advise family.
type round struct {
	// Secs is the time spent in the round's timed calls, failed ones too.
	Secs float64 `json:"secs"`
	// Ms holds the call times, in milliseconds, of the calls that passed
	// their output check, by class of call.
	Ms map[string][]float64 `json:"ms"`
	// Units counts the work units (simulated packets) done by the passing
	// calls, by class; a class without units counts calls.
	Units map[string]int `json:"units,omitempty"`
	// CalMs is the time of one run of calibrate just before the round.
	CalMs float64 `json:"cal_ms"`
}

func newRound() round {
	t0 := time.Now()
	calibrate()
	return round{Ms: map[string][]float64{}, Units: map[string]int{}, CalMs: msSince(t0)}
}

// calSink keeps calibrate's result alive.
var calSink uint64

// calibrate is fixed work that does not depend on Clara: it fills a map and
// sorts a slice of pseudo-random numbers. Its time tracks the host's speed.
func calibrate() {
	x := uint64(0x9E3779B97F4A7C15)
	m := make(map[uint64]uint64, 4096)
	xs := make([]uint64, 16384)
	for i := range xs {
		x = x*6364136223846793005 + 1442695040888963407
		xs[i] = x >> 11
		m[x&4095] += x
	}
	slices.Sort(xs)
	calSink += xs[len(xs)/2] + m[7]
}

func (r *round) add(class string, ms float64) { r.Ms[class] = append(r.Ms[class], ms) }

// partResult is what one measuring process reports.
type partResult struct {
	// SetupPieces holds each set-up's piece times in seconds, in piece order.
	SetupPieces [][]float64 `json:"setup_pieces"`
	// SinceStart is the time from process start to the end of set-up.
	SinceStart float64 `json:"since_start"`
	Attempted  int     `json:"attempted"`
	Failed     int     `json:"failed"`
	Rounds     []round `json:"rounds"`
	// PredErrPct is the simulate workload's prediction error, which the
	// inputs alone fix.
	PredErrPct float64   `json:"pred_err_pct,omitempty"`
	MaxRSSMB   []float64 `json:"max_rss_mb"`
}

// parts is a closed-loop workload's measuring step, run in each part
// process: set up, then run rounds for the part's share of the seconds.
var parts = map[string]func(runConfig) (*partResult, error){
	"advise":   measureAdvise,
	"simulate": measureSimulate,
}

// runPart is the body of a part process: it prints its partResult as the
// last line of its output.
func runPart(cfg runConfig) error {
	measure, ok := parts[cfg.workload]
	if !ok {
		return fmt.Errorf("workload %s has no parts", cfg.workload)
	}
	cfg.dur /= measureParts
	res, err := measure(cfg)
	if err != nil {
		return err
	}
	res.MaxRSSMB = []float64{maxRSSMB()}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// runParts runs the part processes one after another and merges what they
// report. The outcome's max_rss_mb is the smallest of the parts' peaks: the
// peak of a small Go heap jumps by a quarter with the timing of its
// collections, and the smallest of several is steady.
func runParts(cfg runConfig) (*partResult, *outcome, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	all := &partResult{}
	var since []float64
	for k := 0; k < measureParts; k++ {
		cmd := exec.Command(self, "--workload", cfg.workload, "--seed", strconv.FormatInt(cfg.seed, 10),
			"--seconds", strconv.Itoa(int(cfg.dur/time.Second)), "--part", strconv.Itoa(k))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return nil, nil, fmt.Errorf("part %d: %w", k, err)
		}
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		var res partResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return nil, nil, fmt.Errorf("part %d: %w", k, err)
		}
		all.SetupPieces = append(all.SetupPieces, res.SetupPieces...)
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		all.Rounds = append(all.Rounds, res.Rounds...)
		all.PredErrPct = res.PredErrPct
		all.MaxRSSMB = append(all.MaxRSSMB, res.MaxRSSMB...)
		since = append(since, res.SinceStart)
	}
	out := newOutcome()
	out.attempted, out.failed = all.Attempted, all.Failed
	setSetup(out, all.SetupPieces, since)
	out.set("max_rss_mb", slices.Min(all.MaxRSSMB), "MB", measureParts)
	out.set("rounds", float64(len(all.Rounds)), "count", len(all.Rounds))
	// The calibration's median time says how fast the host ran, so a reader
	// can tell a slow host from slow code.
	var cal []float64
	for _, r := range all.Rounds {
		cal = append(cal, r.CalMs)
	}
	out.set("host.cal_ms", percentile(cal, 50), "ms", len(cal))
	return all, out, nil
}

// pooled gathers one class's call times from rounds.
func pooled(rounds []round, class string) []float64 {
	var xs []float64
	for _, r := range rounds {
		xs = append(xs, r.Ms[class]...)
	}
	return xs
}

// classSummary summarizes the call times of classes over rounds by each
// class's p-th percentile call time: their geometric mean (classes differ in
// cost, so a quantile over all calls would jump between classes), the
// geometric mean of the costliest quarter of them (at least one), and the
// work units done per second if every call took its class's percentile time.
// A class without calls makes all three NaN.
func classSummary(rounds []round, classes []string, p float64) (typical, costly, rate float64) {
	qs := make([]float64, 0, len(classes))
	units, secs := 0, 0.0
	for _, c := range classes {
		xs := pooled(rounds, c)
		q := percentile(xs, p)
		qs = append(qs, q)
		n := 0
		for _, r := range rounds {
			n += r.Units[c]
		}
		if n == 0 {
			n = len(xs)
		}
		units += n
		secs += float64(len(xs)) * q / 1e3
	}
	if len(qs) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	typical, rate = geomean(qs), float64(units)/secs
	slices.Sort(qs)
	return typical, geomean(qs[len(qs)-(len(qs)+3)/4:]), rate
}

// classNames is kind/0 .. kind/n-1.
func classNames(kind string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%s/%d", kind, i)
	}
	return names
}
