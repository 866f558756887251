package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"clara"
	"clara/internal/jobs"
)

// The /v1/jobs API is the asynchronous face of the analysis endpoints: a
// client that cannot hold a connection open for a long advise or sweep
// POSTs the same Request body plus a "kind", gets a job ID back
// immediately (202), and polls GET /v1/jobs/{id} until the job reaches a
// terminal state. Jobs and synchronous misses share one engine and one
// compute core — same admission, caches, budget clamps and cancellation
// plumbing — and only jobs are retried.

// jobComputeFn maps a job kind to its compute function; nil for unknown
// kinds. "sweep" is jobs-only: a predict across every known target.
func (s *Server) jobComputeFn(kind string) func(ctx context.Context, nf *clara.NF, req *Request) (any, error) {
	switch kind {
	case "advise":
		return s.adviseCompute
	case "predict":
		return s.predictCompute
	case "partial":
		return s.partialCompute
	case "measure":
		return s.measureCompute
	case "sweep":
		return s.sweepCompute
	}
	return nil
}

// jobView is the JSON rendering of a job snapshot. Result is inlined raw
// (it is already rendered JSON) and only present on done jobs.
type jobView struct {
	ID       string          `json:"id"`
	Kind     string          `json:"kind"`
	Tenant   string          `json:"tenant,omitempty"`
	State    string          `json:"state"`
	Terminal bool            `json:"terminal"`
	Attempts int             `json:"attempts"`
	Error    string          `json:"error,omitempty"`
	Created  time.Time       `json:"created"`
	Finished *time.Time      `json:"finished,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
}

func viewOf(snap jobs.Snapshot) jobView {
	v := jobView{
		ID:       snap.ID,
		Kind:     snap.Kind,
		Tenant:   snap.Tenant,
		State:    string(snap.State),
		Terminal: snap.State.Terminal(),
		Attempts: snap.Attempts,
		Error:    snap.Error,
		Created:  snap.Created,
		Result:   snap.Result,
	}
	if !snap.Finished.IsZero() {
		f := snap.Finished
		v.Finished = &f
	}
	return v
}

func writeJSON(w http.ResponseWriter, code int, body any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(body)
	return code
}

// handleJobs serves POST /v1/jobs (submit) and GET /v1/jobs (list).
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) int {
	switch r.Method {
	case http.MethodGet:
		snaps := s.engine.List()
		views := make([]jobView, 0, len(snaps))
		for _, snap := range snaps {
			snap.Result = nil // list stays light; fetch one job for its body
			views = append(views, viewOf(snap))
		}
		return writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
	case http.MethodPost:
		return s.submitJob(w, r)
	default:
		return writeError(w, http.StatusMethodNotAllowed,
			errors.New("POST to submit a job, GET to list"))
	}
}

func (s *Server) submitJob(w http.ResponseWriter, r *http.Request) int {
	var req Request
	if err := decode(w, r, &req); err != nil {
		return writeError(w, decodeStatus(err), err)
	}
	compute := s.jobComputeFn(req.Kind)
	if compute == nil {
		return writeError(w, http.StatusBadRequest,
			fmt.Errorf("unknown job kind %q (have advise, predict, partial, measure, sweep)", req.Kind))
	}
	source, err := s.resolveSource(&req)
	if err != nil {
		return writeError(w, http.StatusBadRequest, err)
	}
	sum := sha256.Sum256([]byte(source))
	hash := hex.EncodeToString(sum[:])
	key := resultKey(req.Kind, hash, &req)
	kind := req.Kind
	reqCopy := req
	id, err := s.engine.Submit(kind, req.Tenant, func(ctx context.Context) ([]byte, error) {
		// The result cache is shared with the synchronous endpoints: an
		// answer computed either way serves both.
		if body, ok := s.results.get(key); ok {
			s.metrics.Counter("clara_serve_cache_hits_total", "endpoint", kind).Inc()
			return body, nil
		}
		s.metrics.Counter("clara_serve_cache_misses_total", "endpoint", kind).Inc()
		return s.computeBody(ctx, kind, key, reqCopy.NF, &reqCopy, s.withNF(hash, source, &reqCopy, compute))
	})
	if err != nil {
		// Shed, queue full or draining: not accepted, try again later (or
		// on another replica — /readyz is already reporting not-ready).
		return writeComputeError(w, err)
	}
	snap, _ := s.engine.Get(id)
	return writeJSON(w, http.StatusAccepted, viewOf(snap))
}

// handleJobByID serves GET /v1/jobs/{id} (poll) and DELETE /v1/jobs/{id}
// (cancel).
func (s *Server) handleJobByID(w http.ResponseWriter, r *http.Request) int {
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if id == "" || strings.Contains(id, "/") {
		return writeError(w, http.StatusNotFound, fmt.Errorf("bad job path %q", r.URL.Path))
	}
	switch r.Method {
	case http.MethodGet:
		snap, ok := s.engine.Get(id)
		if !ok {
			return writeError(w, http.StatusNotFound, fmt.Errorf("unknown or expired job %q", id))
		}
		return writeJSON(w, http.StatusOK, viewOf(snap))
	case http.MethodDelete:
		if s.engine.Cancel(id) {
			snap, _ := s.engine.Get(id)
			return writeJSON(w, http.StatusOK, viewOf(snap))
		}
		snap, ok := s.engine.Get(id)
		if !ok {
			return writeError(w, http.StatusNotFound, fmt.Errorf("unknown or expired job %q", id))
		}
		return writeError(w, http.StatusConflict,
			fmt.Errorf("job %s already %s", id, snap.State))
	default:
		return writeError(w, http.StatusMethodNotAllowed,
			errors.New("GET to poll a job, DELETE to cancel it"))
	}
}
