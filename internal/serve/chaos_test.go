package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"clara/internal/jobs"
)

// The TestChaos* suite is the deterministic chaos harness ISSUE 7 asks
// for: seeded fault injection against a real server over real HTTP,
// proving the resilience contracts — no accepted job lost, breakers open
// and recover, shedding engages before saturation, drain leaves every job
// terminal — and that a fixed seed reproduces the exact same outcomes.

// submitJSON posts a job submission and decodes the jobView reply.
func submitJSON(t *testing.T, url string, req Request) (jobView, *http.Response) {
	t.Helper()
	resp, body := post(t, url+"/v1/jobs", req)
	var v jobView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("bad job reply %q: %v", body, err)
		}
	}
	return v, resp
}

// waitAllTerminal polls the engine until every submitted job settles.
func waitAllTerminal(t *testing.T, s *Server) []jobs.Snapshot {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		snaps := s.engine.List()
		done := true
		for _, snap := range snaps {
			if !snap.State.Terminal() {
				done = false
				break
			}
		}
		if done {
			return snaps
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("jobs did not all reach a terminal state within 30s")
	return nil
}

func TestChaosJobsAllReachTerminalState(t *testing.T) {
	s, ts := newTestServer(t, Config{
		MaxInflight:    4,
		JobBackoff:     time.Millisecond,
		JobMaxAttempts: 3,
		Chaos:          &jobs.Chaos{Fail: 0.2, Panic: 0.05, Delay: 0.1, MaxDelay: 2 * time.Millisecond, Seed: 42},
	})
	const n = 30
	accepted := 0
	for i := 0; i < n; i++ {
		v, resp := submitJSON(t, ts.URL, Request{
			Kind: "advise", NF: "firewall",
			Workload: fmt.Sprintf("flows=%d,rate=60000,size=300", 100+i),
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d: status %d", i, resp.StatusCode)
		}
		if v.State == "" || v.ID == "" {
			t.Fatalf("submission %d: empty job view %+v", i, v)
		}
		accepted++
	}
	snaps := waitAllTerminal(t, s)
	if len(snaps) != accepted {
		t.Fatalf("%d jobs accepted but %d retained — a job was lost", accepted, len(snaps))
	}
	var done, failed int
	for _, snap := range snaps {
		switch snap.State {
		case jobs.StateDone:
			done++
			if len(snap.Result) == 0 {
				t.Errorf("job %s done with empty result", snap.ID)
			}
		case jobs.StateFailed:
			failed++
		default:
			t.Errorf("job %s settled as %s; only done/failed expected here", snap.ID, snap.State)
		}
		if snap.Attempts < 1 || snap.Attempts > 3 {
			t.Errorf("job %s made %d attempts, want 1..3", snap.ID, snap.Attempts)
		}
	}
	// At 20% fail + 5% panic per attempt with 3 attempts, the vast majority
	// must complete; a lost-retry bug shows up here as mass failure.
	if done < n*2/3 {
		t.Fatalf("only %d/%d jobs done (%d failed); retries are not working", done, n, failed)
	}
}

func TestChaosOutcomesDeterministic(t *testing.T) {
	type outcome struct {
		ID       string
		State    jobs.State
		Attempts int
	}
	run := func() []outcome {
		s, ts := newTestServer(t, Config{
			MaxInflight:    3,
			JobBackoff:     time.Millisecond,
			JobMaxAttempts: 3,
			JobSeed:        7,
			Chaos:          &jobs.Chaos{Fail: 0.35, Panic: 0.15, Seed: 99},
		})
		for i := 0; i < 24; i++ {
			_, resp := submitJSON(t, ts.URL, Request{
				Kind: "advise", NF: "firewall",
				Workload: fmt.Sprintf("flows=%d,rate=60000,size=300", 200+i),
			})
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submission %d: status %d", i, resp.StatusCode)
			}
		}
		var out []outcome
		for _, snap := range waitAllTerminal(t, s) {
			out = append(out, outcome{snap.ID, snap.State, snap.Attempts})
		}
		return out
	}
	first, second := run(), run()
	if len(first) != len(second) {
		t.Fatalf("run sizes differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("job %d diverged across identical seeded runs: %+v vs %+v",
				i, first[i], second[i])
		}
	}
}

func TestChaosBreakerOpensAndRecovers(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Breaker: jobs.BreakerConfig{
			Window: 8, MinSamples: 4, FailureRate: 0.5,
			Cooldown: 50 * time.Millisecond, Probes: 1,
		},
		Chaos: &jobs.Chaos{Fail: 1, Seed: 1},
	})
	// Every computation fails with an injected transient error (503), so
	// MinSamples failures trip the advise breaker.
	for i := 0; i < 4; i++ {
		resp, _ := post(t, ts.URL+"/v1/advise", Request{
			NF: "firewall", Workload: fmt.Sprintf("flows=%d,rate=60000,size=300", 300+i),
		})
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("request %d: status %d, want 503 from injected fault", i, resp.StatusCode)
		}
		if i < 3 && s.breakers["advise"].State() != jobs.BreakerClosed {
			t.Fatalf("breaker tripped after only %d failures", i+1)
		}
	}
	if got := s.breakers["advise"].State(); got != jobs.BreakerOpen {
		t.Fatalf("breaker state %s after 4/4 failures, want open", got)
	}
	// While open the request is rejected before any computation, with a
	// Retry-After hint.
	resp, body := post(t, ts.URL+"/v1/advise", Request{NF: "firewall", Workload: testWorkload})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d while breaker open, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("open-breaker rejection %q lacks Retry-After", body)
	}
	computed := s.metrics.Counter("clara_serve_computations_total", "endpoint", "advise").Value()
	if computed != 0 {
		t.Fatalf("%d computations ran; injected failures should precede compute", computed)
	}

	// Heal the fault and wait out the cooldown: the half-open probe runs
	// for real, succeeds, and closes the breaker.
	s.chaosMu.Lock()
	s.chaos = nil
	s.chaosMu.Unlock()
	time.Sleep(80 * time.Millisecond)
	resp, body = post(t, ts.URL+"/v1/advise", Request{NF: "firewall", Workload: testWorkload})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe request: status %d (%s), want 200", resp.StatusCode, body)
	}
	if got := s.breakers["advise"].State(); got != jobs.BreakerClosed {
		t.Fatalf("breaker state %s after successful probe, want closed", got)
	}
	for _, to := range []string{"open", "half-open", "closed"} {
		if n := s.metrics.Counter("clara_breaker_transitions_total",
			"endpoint", "advise", "to", to).Value(); n < 1 {
			t.Errorf("no recorded transition to %s", to)
		}
	}
}

// TestChaosSheddingEngagesBeforeSaturation: the job queue's one bound,
// JobQueueDepth, sheds submissions once that many computations are
// admitted but unfinished, with Retry-After and a reason="queue" count.
func TestChaosSheddingEngagesBeforeSaturation(t *testing.T) {
	s, err := New(Config{
		MaxInflight:   1,
		JobQueueDepth: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.AddNF("firewall", firewallSrc)
	// Pin the lone worker's computation so submissions pile up behind it,
	// and release it before the shutdown so the drain need not time out.
	gate := make(chan struct{})
	s.testComputeGate = func(context.Context) { <-gate }
	ts := newHTTPServer(t, s)
	defer shutdownServer(t, s)
	defer close(gate)

	var accepted, shed int
	var firstShed *http.Response
	for i := 0; i < 12; i++ {
		v, resp := submitJSON(t, ts, Request{
			Kind: "advise", NF: "firewall",
			Workload: fmt.Sprintf("flows=%d,rate=60000,size=300", 400+i),
		})
		switch resp.StatusCode {
		case http.StatusAccepted:
			accepted++
			// Make sure the first job is actually running (not queued)
			// before judging queue depth on later submissions.
			if accepted == 1 {
				waitRunning(t, s, v.ID)
			}
		case http.StatusServiceUnavailable:
			shed++
			if firstShed == nil {
				firstShed = resp
			}
		default:
			t.Fatalf("submission %d: unexpected status %d", i, resp.StatusCode)
		}
	}
	if shed == 0 {
		t.Fatal("no submission was shed")
	}
	if firstShed.Header.Get("Retry-After") == "" {
		t.Fatal("shed response lacks Retry-After")
	}
	// Shedding must engage at JobQueueDepth: 4 queued + 1 running = 5
	// accepted.
	if accepted != 5 {
		t.Fatalf("%d submissions accepted, want 5: shedding must engage at the 5-deep bound", accepted)
	}
	if n := pending(s); n != 5 {
		t.Fatalf("%d computations pending, want the bound 5", n)
	}
	if n := s.metrics.Counter("clara_jobs_shed_total", "reason", "queue").Value(); n != int64(shed) {
		t.Fatalf("shed counter %d, want %d", n, shed)
	}
}

func TestChaosDrainLeavesAllJobsTerminal(t *testing.T) {
	s, err := New(Config{MaxInflight: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.AddNF("firewall", firewallSrc)
	// Pin both workers: their jobs only unblock when drain hard-cancels.
	s.testComputeGate = func(context.Context) { <-s.base.Done() }
	ts := newHTTPServer(t, s)

	ids := make([]string, 0, 6)
	for i := 0; i < 6; i++ {
		v, resp := submitJSON(t, ts, Request{
			Kind: "advise", NF: "firewall",
			Workload: fmt.Sprintf("flows=%d,rate=60000,size=300", 500+i),
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d: status %d", i, resp.StatusCode)
		}
		ids = append(ids, v.ID)
	}
	if code, body := getReady(t, ts); code != http.StatusOK {
		t.Fatalf("/readyz before drain: %d (%s)", code, body)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	// While draining, readiness must flip to 503 and report why.
	flipDeadline := time.Now().Add(2 * time.Second)
	for {
		code, body := getReady(t, ts)
		if code == http.StatusServiceUnavailable {
			var rr readyResponse
			if err := json.Unmarshal(body, &rr); err != nil || !rr.Draining {
				t.Fatalf("draining /readyz body %q: err=%v", body, err)
			}
			break
		}
		if time.Now().After(flipDeadline) {
			t.Fatal("/readyz never flipped to 503 during drain")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := <-done; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown returned %v, want DeadlineExceeded (workers were pinned)", err)
	}
	// The hard contract: every accepted job is terminal after Shutdown.
	for _, id := range ids {
		snap, ok := s.engine.Get(id)
		if !ok {
			t.Fatalf("job %s lost during drain", id)
		}
		if !snap.State.Terminal() {
			t.Fatalf("job %s left in state %s after drain", id, snap.State)
		}
	}
	// And nothing new is accepted.
	if _, resp := submitJSON(t, ts, Request{Kind: "advise", NF: "firewall", Workload: testWorkload}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submission: status %d, want 503", resp.StatusCode)
	}
}

// newHTTPServer starts an httptest server around a hand-built Server
// (tests that drain explicitly manage shutdown themselves).
func newHTTPServer(t *testing.T, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

func shutdownServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = s.Shutdown(ctx)
}

// waitRunning polls until the job is in the running state.
func waitRunning(t *testing.T, s *Server, id string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if snap, ok := s.engine.Get(id); ok && snap.State == jobs.StateRunning {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never started running", id)
}

func getReady(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}
