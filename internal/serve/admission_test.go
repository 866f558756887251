package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clara/internal/jobs"
)

// TestSyncMissesAreShed pins the one admission path: synchronous misses
// queue in the job engine, so the shedder sees them, and once they fill
// the queue to ShedQueue the next synchronous miss and the next job
// submission are refused by the same rule, 503 with Retry-After.
func TestSyncMissesAreShed(t *testing.T) {
	gate := make(chan struct{})
	var release sync.Once
	open := func() { release.Do(func() { close(gate) }) }
	s, ts := newTestServer(t, Config{MaxInflight: 1, JobQueueDepth: 8, ShedQueue: 2})
	t.Cleanup(open) // runs before the server closes, so a failed check cannot hang it
	s.testComputeGate = func() { <-gate }

	codes := make(chan int, 3)
	advise := func(i int) {
		go func() {
			resp, _ := post(t, ts.URL+"/v1/advise", Request{
				NF: "firewall", Workload: fmt.Sprintf("flows=%d,rate=60000,size=300", 700+i),
			})
			codes <- resp.StatusCode
		}()
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: running %d, queued %d", what, s.engine.Running(), s.engine.Depth())
			}
			time.Sleep(time.Millisecond)
		}
	}
	advise(0)
	waitFor("the first sync miss never reached an engine worker", func() bool { return s.engine.Running() == 1 })
	advise(1)
	advise(2)
	waitFor("two sync misses never queued in the engine", func() bool { return s.engine.Depth() == 2 })

	resp, body := post(t, ts.URL+"/v1/advise", Request{NF: "firewall", Workload: "flows=799,rate=60000,size=300"})
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("sync miss past ShedQueue: status %d, Retry-After %q (%s); want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	if !strings.Contains(string(body), "shedding load (queue)") {
		t.Errorf("sync shed body %s does not name the queue signal", body)
	}
	_, jresp := submitJSON(t, ts.URL, Request{Kind: "advise", NF: "firewall", Workload: testWorkload})
	if jresp.StatusCode != http.StatusServiceUnavailable || jresp.Header.Get("Retry-After") == "" {
		t.Fatalf("job submission past ShedQueue: status %d, Retry-After %q; want 503 with Retry-After",
			jresp.StatusCode, jresp.Header.Get("Retry-After"))
	}
	if n := s.metrics.Counter("clara_jobs_shed_total", "reason", "queue").Value(); n != 2 {
		t.Fatalf("queue sheds counted %d, want 2 (one sync miss, one job)", n)
	}

	open()
	for i := 0; i < 3; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("admitted sync miss got %d, want 200", code)
		}
	}
}

// TestSyncComputationsAreNotJobs: a synchronous miss runs as one engine
// attempt, but it is never listed under /v1/jobs and never retried, even
// when that attempt fails with an injected transient fault.
func TestSyncComputationsAreNotJobs(t *testing.T) {
	s, ts := newTestServer(t, Config{JobMaxAttempts: 3, Chaos: &jobs.Chaos{Fail: 1, Seed: 3}})
	resp, body := post(t, ts.URL+"/v1/advise", Request{NF: "firewall", Workload: testWorkload})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("sync advise under Fail:1: status %d (%s), want 503", resp.StatusCode, body)
	}
	if n := s.metrics.Counter("clara_jobs_retries_total").Value(); n != 0 {
		t.Errorf("sync advise caused %d retries, want 0", n)
	}
	if n := s.metrics.Histogram("clara_jobs_attempt_nanos", "kind", "advise").Count(); n != 1 {
		t.Errorf("sync advise ran %d engine attempts, want 1", n)
	}
	lresp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var list struct {
		Jobs []jobView `json:"jobs"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 0 {
		t.Errorf("GET /v1/jobs lists %d jobs after a sync request, want 0: %+v", len(list.Jobs), list.Jobs)
	}
}

// TestSyncPanicAnswers500: a panicking synchronous computation is caught at
// the engine's attempt boundary and answered with the JSON error envelope.
func TestSyncPanicAnswers500(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.testComputeGate = func() { panic("boom") }
	resp, body := post(t, ts.URL+"/v1/advise", Request{NF: "firewall", Workload: testWorkload})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking sync advise: status %d (%s), want 500", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
		t.Fatalf("500 body %q is not the JSON error envelope (err=%v)", body, err)
	}
}

// TestSyncMissesShedOnAttemptLatency pins the shedder's latency signal to
// the job engine's attempt durations: once a window of computations ran
// slower than ShedP99, the next synchronous miss is refused, 503 with
// Retry-After, for reason "latency". The shedder's window rolls at most
// once a second, so each round runs 16 slow misses (its MinSamples) and
// probes one interval after the round began; a round slow enough to straddle
// a roll proves nothing and is repeated.
func TestSyncMissesShedOnAttemptLatency(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 16, ShedQueue: -1, ShedP99: time.Millisecond})
	s.testComputeGate = func() { time.Sleep(5 * time.Millisecond) }
	var seed atomic.Int64
	// measure sends a distinct miss and reports whether it was shed for
	// latency; any other answer but 200 fails the test.
	measure := func() bool {
		resp, body := post(t, ts.URL+"/v1/measure", Request{NF: "firewall", Target: "netronome",
			Workload: "packets=32,flows=8,rate=60000,size=300", Seed: seed.Add(1)})
		if resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != "" &&
			strings.Contains(string(body), "shedding load (latency)") {
			return true
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("miss: status %d (%s), want 200 or a latency shed", resp.StatusCode, body)
		}
		return false
	}
	for round := 0; round < 5; round++ {
		start := time.Now()
		var wg sync.WaitGroup
		var shed atomic.Bool
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if measure() {
					shed.Store(true)
				}
			}()
		}
		wg.Wait()
		fast := time.Since(start) < time.Second
		time.Sleep(time.Second + 50*time.Millisecond - time.Since(start))
		if measure() || shed.Load() {
			if n := s.metrics.Counter("clara_jobs_shed_total", "reason", "latency").Value(); n < 1 {
				t.Errorf("latency sheds counted %d, want at least 1", n)
			}
			return
		}
		if fast {
			t.Fatal("16 misses slower than ShedP99 within one window, and the next miss was admitted")
		}
	}
	t.Fatal("no round of slow misses fit in one shedder window")
}

// TestExpiredComputationAnswers503: a computation that expired in the job
// engine's queue was never run, so the answer is overload with
// Retry-After, not a client error.
func TestExpiredComputationAnswers503(t *testing.T) {
	rec := httptest.NewRecorder()
	code := writeComputeError(rec, fmt.Errorf("%w: job advise waited 16m in queue", jobs.ErrExpired))
	if code != http.StatusServiceUnavailable || rec.Code != code || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("expired computation: status %d (recorded %d), Retry-After %q; want 503 with Retry-After",
			code, rec.Code, rec.Header().Get("Retry-After"))
	}
}
