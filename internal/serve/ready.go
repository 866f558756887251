package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"clara"
	"clara/internal/budget"
	"clara/internal/jobs"
)

// probeSrc is the canned NF the readiness self-check pushes through the
// real compile-and-predict pipeline: small enough to cost microseconds,
// real enough that a wedged compiler, broken target table or exhausted
// pipeline shows up as not-ready.
const probeSrc = `nf readyprobe {
	handler(pkt) {
		if (!parse(ipv4)) { return pass; }
		return pass;
	}
}`

// readyResponse is the GET /readyz body. Ready is the verdict; the rest is
// the evidence. QueueDepth counts the computations admitted but not yet
// finished, the count QueueBound (JobQueueDepth) limits.
type readyResponse struct {
	Ready      bool              `json:"ready"`
	Draining   bool              `json:"draining"`
	Library    int               `json:"library_nfs"`
	QueueDepth int               `json:"queue_depth"`
	QueueBound int               `json:"queue_bound"`
	Running    int               `json:"running"`
	Breakers   map[string]string `json:"breakers"`
	SelfCheck  string            `json:"self_check"`
}

// handleReady implements readiness, distinct from /healthz liveness: the
// process can be perfectly alive and still be the wrong replica to route
// to — draining, circuit-broken, queue-saturated, or failing its own
// pipeline. Not-ready answers are 503 with the same JSON body, so an
// operator can curl the reason a balancer only sees as a flag.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	library := len(s.library)
	s.mu.Unlock()

	pending, refusal := s.engine.Admission()
	resp := readyResponse{
		Draining:   draining,
		Library:    library,
		QueueDepth: pending,
		QueueBound: s.cfg.JobQueueDepth,
		Running:    s.engine.Running(),
		Breakers:   map[string]string{},
	}
	// Not ready whenever the next admission would be refused.
	ready := !draining && refusal == nil
	for name, br := range s.breakers {
		state := br.State()
		resp.Breakers[name] = state
		if state == jobs.BreakerOpen {
			ready = false
		}
	}
	if draining {
		// The pipeline is being torn down; probing it now proves nothing.
		resp.SelfCheck = "skipped: draining"
	} else if err := s.selfCheck(); err != nil {
		resp.SelfCheck = err.Error()
		ready = false
	} else {
		resp.SelfCheck = "ok"
	}
	resp.Ready = ready

	code := http.StatusOK
	if !ready {
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(resp)
}

// selfCheck runs the probe prediction, memoized for SelfCheckEvery so a
// aggressive balancer probing every 100ms costs one real check per window.
func (s *Server) selfCheck() error {
	s.readyMu.Lock()
	defer s.readyMu.Unlock()
	if !s.readyAt.IsZero() && time.Since(s.readyAt) < s.cfg.SelfCheckEvery {
		return s.readyErr
	}
	s.readyErr = s.runProbe()
	s.readyAt = time.Now()
	return s.readyErr
}

// runProbe pushes the canned NF through the real pipeline: compile (or
// NF-cache hit), target lookup, workload parse, predict — under a tight
// deadline and budget so a wedged server answers "not ready" instead of
// hanging the probe.
func (s *Server) runProbe() error {
	sum := sha256.Sum256([]byte(probeSrc))
	nf, err := s.compiledNF(hex.EncodeToString(sum[:]), probeSrc)
	if err != nil {
		return err
	}
	targets := clara.Targets()
	if len(targets) == 0 {
		return errors.New("no prediction targets registered")
	}
	t, err := clara.BuiltinTarget(targets[0])
	if err != nil {
		return err
	}
	wl, err := clara.ParseWorkload("flows=16,rate=1000,size=64")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(s.base, 2*time.Second)
	defer cancel()
	ctx = budget.With(ctx, budget.Limits{SymExecSteps: 100_000, SimSteps: 100_000})
	_, err = nf.PredictContext(ctx, t, wl, clara.Hints{})
	return err
}
