// Package serve is Clara's long-running prediction service: an HTTP front
// end over the library's ...Context entry points, so a fleet operator can
// query "how would this NF perform on that SmartNIC under this workload"
// without recompiling and re-simulating from scratch per question. The
// ROADMAP's north star is a production system serving heavy query traffic;
// this layer supplies the serving mechanics the batch CLIs lack:
//
//   - caching: compiled NFs live in an LRU keyed by source hash (an NF's
//     memoized behaviour enumeration rides along, so repeated questions
//     about one NF skip symbolic execution entirely), and rendered results
//     live in a second LRU keyed by endpoint + NF hash + target +
//     workload + budget — a repeated question is answered from memory,
//     byte for byte identical;
//   - singleflight: concurrent identical requests share one computation
//     instead of racing N copies of it;
//   - one admission path: every computation, sync or async, is admitted by
//     the internal/jobs engine and runs on its MaxInflight workers, and
//     every request's timeout and budget are clamped by operator-configured
//     ceilings (cliutil.RequestContext), a sync request's deadline from
//     before admission, so no client can monopolize the box;
//   - graceful shutdown: Shutdown stops admitting work, drains in-flight
//     analyses, and past the drain deadline aborts them through the same
//     cancellation plumbing the CLIs use (typed errors, partial results);
//   - observability: per-endpoint latency histograms, request/cache/
//     computation counters and budget-usage gauges on GET /metrics in
//     Prometheus text format (internal/obs).
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"clara"
	"clara/internal/budget"
	"clara/internal/cliutil"
	"clara/internal/jobs"
	"clara/internal/obs"
)

// Config parameterizes a Server. The zero value is usable: defaults are
// documented per field.
type Config struct {
	// NFDir, when non-empty, is scanned (non-recursively) for *.nf files at
	// New; each becomes a named NF clients can reference as {"nf": "name"}
	// instead of inlining source. GET /v1/nfs lists them.
	NFDir string
	// MaxTimeout is the per-request wall-clock ceiling; client timeouts are
	// clamped to it (default 30s, ≤ 0 keeps the default — a serving layer
	// never runs unbounded work).
	MaxTimeout time.Duration
	// MaxBudget are the per-request resource ceilings; client -budget specs
	// clamp against them (zero dimensions fall back to the library's safety
	// defaults).
	MaxBudget budget.Limits
	// Parallel is the internal/runner pool width each analysis fans out
	// with (advise targets, partial cuts); < 1 selects GOMAXPROCS.
	Parallel int
	// MaxInflight sizes the job engine's worker pool, which runs every
	// computation, sync or async; excess computations queue in the engine.
	// < 1 selects 2×GOMAXPROCS.
	MaxInflight int
	// NFCacheSize bounds the compiled-NF LRU (default 128 entries).
	NFCacheSize int
	// ResultCacheSize bounds the rendered-result LRU (default 1024
	// entries).
	ResultCacheSize int
	// Metrics receives all server and pipeline metrics; nil creates a
	// fresh registry (exposed at /metrics either way).
	Metrics *obs.Metrics

	// JobQueueDepth bounds computations, sync or async, admitted but not
	// yet terminal; admissions beyond it answer 503 (default 256).
	JobQueueDepth int
	// JobMaxAttempts bounds executions per job, first try included
	// (default 3).
	JobMaxAttempts int
	// JobBackoff is the base retry delay, doubling per retry with
	// deterministic jitter (default 50ms).
	JobBackoff time.Duration
	// JobTTL is how long terminal job results stay pollable and how stale a
	// queued async job may grow before it expires unrun (default 15m); a
	// sync request's wait is bounded by its deadline instead.
	JobTTL time.Duration
	// JobSeed fixes the retry-jitter pattern (and pairs with Chaos.Seed in
	// the chaos harness's determinism contract).
	JobSeed int64
	// TenantWeights maps the "tenant" request field to a weighted-fair
	// share of the workers; absent tenants (and sync requests) weigh 1.
	TenantWeights map[string]float64
	// ShedP99 sheds new computations while the windowed p99 duration of
	// job-engine attempts (every computation, sync or async) exceeds it
	// (0 disables the latency signal).
	ShedP99 time.Duration
	// Breaker parameterizes the per-endpoint circuit breakers; the zero
	// value selects the jobs.BreakerConfig defaults.
	Breaker jobs.BreakerConfig
	// Chaos, when non-nil, fault-injects every computation (sync and async)
	// for resilience testing. Never set it in production.
	Chaos *jobs.Chaos
	// SelfCheckEvery caps how often /readyz re-runs its end-to-end probe
	// prediction; between runs the cached verdict is served (default 15s).
	SelfCheckEvery time.Duration
}

// Server is the HTTP prediction service. Create with New, mount Handler,
// and call Shutdown to drain. All methods are safe for concurrent use.
type Server struct {
	cfg     Config
	metrics *obs.Metrics
	usage   *budget.Usage

	// base is the server-lifetime context every computation derives from;
	// baseCancel is the hard-abort lever Shutdown pulls after the drain
	// deadline. Computations deliberately do NOT derive from the request
	// context: a singleflight result is shared across callers and survives
	// any one client's disconnect (it lands in the cache either way).
	base       context.Context
	baseCancel context.CancelFunc

	nfs     *lru[string, *clara.NF]
	results *lru[string, []byte]
	flight  flightGroup

	// engine admits and runs every computation: synchronous misses through
	// Do, POST /v1/jobs through Submit. breakers trip per analysis endpoint
	// when computations start failing.
	engine   *jobs.Engine
	breakers map[string]*jobs.Breaker

	library map[string]string // NF name → source
	mux     *http.ServeMux

	mu       sync.Mutex
	active   int
	draining bool
	drained  chan struct{}
	drainOne sync.Once

	// chaos is swappable at runtime, under chaosMu, so tests can switch
	// fault injection off mid-run and watch the breakers recover.
	chaosMu sync.Mutex
	chaos   *jobs.Chaos

	// readyz self-check cache: the probe prediction runs at most once per
	// SelfCheckEvery.
	readyMu  sync.Mutex
	readyAt  time.Time
	readyErr error

	// testComputeGate, when non-nil, runs at the start of every computation
	// (inside an engine attempt) with the attempt's context; tests use it to
	// pin work in flight.
	testComputeGate func(ctx context.Context)
}

// New builds a Server, loading the NF library from cfg.NFDir when set.
func New(cfg Config) (*Server, error) {
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 30 * time.Second
	}
	if cfg.MaxInflight < 1 {
		cfg.MaxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.NFCacheSize < 1 {
		cfg.NFCacheSize = 128
	}
	if cfg.ResultCacheSize < 1 {
		cfg.ResultCacheSize = 1024
	}
	if cfg.JobQueueDepth < 1 {
		cfg.JobQueueDepth = 256
	}
	if cfg.SelfCheckEvery <= 0 {
		cfg.SelfCheckEvery = 15 * time.Second
	}
	if err := cfg.Chaos.Validate(); err != nil {
		return nil, err
	}
	m := cfg.Metrics
	if m == nil {
		m = obs.New()
	}
	base, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		metrics:    m,
		usage:      &budget.Usage{},
		base:       base,
		baseCancel: cancel,
		nfs:        newLRU[string, *clara.NF](cfg.NFCacheSize),
		results:    newLRU[string, []byte](cfg.ResultCacheSize),
		library:    map[string]string{},
		drained:    make(chan struct{}),
		chaos:      cfg.Chaos,
	}
	s.nfs.onEvict = func(string, *clara.NF) {
		m.Counter("clara_serve_nf_cache_evictions_total").Inc()
	}
	s.results.onEvict = func(string, []byte) {
		m.Counter("clara_serve_result_cache_evictions_total").Inc()
	}
	var shed *jobs.Shedder
	if cfg.ShedP99 > 0 {
		shed = jobs.NewShedder(jobs.ShedConfig{P99: cfg.ShedP99}, jobs.AttemptNanos(m))
	}
	s.engine = jobs.NewEngine(base, jobs.Config{
		Workers:     cfg.MaxInflight,
		QueueDepth:  cfg.JobQueueDepth,
		MaxAttempts: cfg.JobMaxAttempts,
		Backoff:     cfg.JobBackoff,
		TTL:         cfg.JobTTL,
		Seed:        cfg.JobSeed,
		Weights:     cfg.TenantWeights,
		Transient:   func(err error) bool { return budget.Transient(err, cfg.MaxBudget) },
		Chaos:       s.currentChaos,
		Shed:        shed,
		Metrics:     m,
	})
	s.breakers = map[string]*jobs.Breaker{}
	for _, endpoint := range []string{"advise", "predict", "partial", "measure", "colocate"} {
		endpoint := endpoint
		bc := cfg.Breaker
		bc.OnTransition = func(from, to string) {
			m.Counter("clara_breaker_transitions_total", "endpoint", endpoint, "to", to).Inc()
		}
		s.breakers[endpoint] = jobs.NewBreaker(bc)
	}
	if cfg.NFDir != "" {
		paths, err := filepath.Glob(filepath.Join(cfg.NFDir, "*.nf"))
		if err != nil {
			return nil, err
		}
		for _, p := range paths {
			src, err := os.ReadFile(p)
			if err != nil {
				return nil, err
			}
			name := strings.TrimSuffix(filepath.Base(p), ".nf")
			s.library[name] = string(src)
		}
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/advise", s.instrument("advise", s.handleAdvise))
	mux.Handle("/v1/predict", s.instrument("predict", s.handlePredict))
	mux.Handle("/v1/partial", s.instrument("partial", s.handlePartial))
	mux.Handle("/v1/measure", s.instrument("measure", s.handleMeasure))
	mux.Handle("/v1/colocate", s.instrument("colocate", s.handleColocate))
	mux.Handle("/v1/nfs", s.instrument("nfs", s.handleNFs))
	mux.Handle("/v1/jobs", s.instrument("jobs", s.handleJobs))
	mux.Handle("/v1/jobs/", s.instrument("jobs", s.handleJobByID))
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	// Liveness (/healthz) answers "is the process up"; readiness answers
	// "should this replica take traffic". /readyz is deliberately NOT
	// instrumented: it must keep answering (503) while the server drains.
	mux.HandleFunc("/readyz", s.handleReady)
	s.mux = mux
	return s, nil
}

// AddNF registers (or replaces) a named NF source in the library, as if it
// had been loaded from NFDir.
func (s *Server) AddNF(name, source string) {
	s.mu.Lock()
	s.library[name] = source
	s.mu.Unlock()
}

// Handler returns the server's HTTP handler (mount it on an http.Server).
func (s *Server) Handler() http.Handler { return s.mux }

// LibrarySize reports how many named NFs the library holds.
func (s *Server) LibrarySize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.library)
}

func (s *Server) currentChaos() *jobs.Chaos {
	s.chaosMu.Lock()
	defer s.chaosMu.Unlock()
	return s.chaos
}

// Shutdown drains the server: new requests and queued computations get
// 503 immediately, running ones run to completion, and if ctx expires
// first they are hard-aborted through the pipeline's cancellation plumbing
// (each unwinds with a typed CanceledError and its requester gets a 503).
// Shutdown returns once no request is active; the error is ctx's when the
// drain deadline forced an abort. The server cannot be reused afterwards.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	if s.active == 0 {
		s.drainOne.Do(func() { close(s.drained) })
	}
	s.mu.Unlock()
	// The one hard-abort lever: at the deadline the base context, from
	// which the engine's derives, is canceled.
	defer context.AfterFunc(ctx, s.baseCancel)()
	defer s.baseCancel()
	// Every accepted job is terminal when Drain returns, deadline or not.
	err := s.engine.Drain(ctx)
	<-s.drained
	return err
}

// enter admits one request unless the server is draining; leave is its
// mandatory counterpart.
func (s *Server) enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.active++
	return true
}

func (s *Server) leave() {
	s.mu.Lock()
	s.active--
	if s.draining && s.active == 0 {
		s.drainOne.Do(func() { close(s.drained) })
	}
	s.mu.Unlock()
}

// Request is the JSON body shared by the three analysis endpoints. Exactly
// one of NF (a library name, see /v1/nfs) or Source (inline NF dialect)
// names the function to analyze. Workload uses the CLI spec syntax
// ("flows=10000,rate=60000,size=300"); Budget and Timeout use the -budget
// and -timeout syntax and are clamped by the server's ceilings. Target is
// required by /v1/predict and /v1/partial and ignored by /v1/advise.
type Request struct {
	NF       string `json:"nf,omitempty"`
	Source   string `json:"source,omitempty"`
	Target   string `json:"target,omitempty"`
	Workload string `json:"workload,omitempty"`
	Budget   string `json:"budget,omitempty"`
	Timeout  string `json:"timeout,omitempty"`
	// Seed and Faults apply to /v1/measure only: the simulator seed and a
	// fault-injection spec in the clara-sim -faults syntax. Both are part
	// of the result identity (and the cache key).
	Seed   int64  `json:"seed,omitempty"`
	Faults string `json:"faults,omitempty"`
	// Kind and Tenant apply to POST /v1/jobs only: Kind picks the deferred
	// computation ("advise", "predict", "partial", "measure" or "sweep" —
	// a predict across every known target) and Tenant names the
	// weighted-fair scheduling bucket the job bills to.
	Kind   string `json:"kind,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	// Tenants applies to /v1/colocate only: the NFs sharing the target NIC.
	// The top-level NF/Source fields are unused there.
	Tenants []TenantSpec `json:"tenants,omitempty"`
}

// TenantSpec names one co-located tenant for /v1/colocate. Exactly one of
// NF (library name) or Source (inline dialect) is required. Weight is the
// tenant's share of the partitioned cores: omitted or 0 means 1, negative
// deactivates the tenant (its prediction comes back null). Workload
// overrides the request-level workload for this tenant only.
type TenantSpec struct {
	NF       string  `json:"nf,omitempty"`
	Source   string  `json:"source,omitempty"`
	Weight   float64 `json:"weight,omitempty"`
	Workload string  `json:"workload,omitempty"`
}

// weight resolves the spec's effective share (absent → 1).
func (t TenantSpec) weight() float64 {
	if t.Weight == 0 {
		return 1
	}
	return t.Weight
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// instrument wraps an endpoint with drain gating and the per-endpoint
// metrics: clara_http_requests_total{endpoint,code} and the latency
// histogram clara_http_request_nanos{endpoint}.
func (s *Server) instrument(endpoint string, h func(w http.ResponseWriter, r *http.Request) int) http.Handler {
	hist := s.metrics.Histogram("clara_http_request_nanos", "endpoint", endpoint)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var code int
		if s.enter() {
			defer s.leave()
			code = h(w, r)
		} else {
			code = writeError(w, http.StatusServiceUnavailable, errors.New("server is shutting down"))
		}
		hist.ObserveSince(start)
		s.metrics.Counter("clara_http_requests_total",
			"endpoint", endpoint, "code", strconv.Itoa(code)).Inc()
	})
}

func writeError(w http.ResponseWriter, code int, err error) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorBody{Error: err.Error()})
	return code
}

// writeRetryError is writeError plus a Retry-After hint (whole seconds,
// rounded up so "300ms" does not truncate to "retry now").
func writeRetryError(w http.ResponseWriter, code int, err error, retryAfter time.Duration) int {
	secs := int64((retryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	return writeError(w, code, err)
}

func writeBody(w http.ResponseWriter, cache string, body []byte) int {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Clara-Cache", cache)
	w.WriteHeader(http.StatusOK)
	w.Write(body)
	return http.StatusOK
}

// writeComputeError answers a failed computation: a refusal at the job
// engine's admission (queue bound, latency shedding, drain) is 503 with
// Retry-After, anything else statusFor's.
func writeComputeError(w http.ResponseWriter, err error) int {
	var shed *jobs.ShedError
	if errors.As(err, &shed) || errors.Is(err, jobs.ErrDraining) {
		return writeRetryError(w, http.StatusServiceUnavailable, err, time.Second)
	}
	return writeError(w, statusFor(err), err)
}

// statusFor maps pipeline errors to HTTP codes: tripped budgets are the
// client's spec being too tight (422), deadlines are 504, a cancellation
// means the server is aborting work during shutdown (503), internal panics
// surface as 500, and everything else — unparsable NF source, unknown
// targets, infeasible mappings, malformed workload specs — is a 400.
func statusFor(err error) int {
	var pe *budget.PanicError
	var te *budget.TransientError
	switch {
	case errors.As(err, &te):
		// A transient failure (injected fault, momentary overload) is worth
		// the client retrying — 503, like every other "try again" answer.
		return http.StatusServiceUnavailable
	case errors.Is(err, budget.Exceeded):
		return http.StatusUnprocessableEntity
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errors.As(err, &pe):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// errTooLarge marks a request body over the size bound; decodeStatus maps
// it to 413 rather than the generic 400.
var errTooLarge = errors.New("request body too large")

// decode parses and bounds a request body. MaxBytesReader gets the real
// ResponseWriter so an over-limit POST also has its connection closed,
// instead of the server politely reading megabytes it will reject anyway.
func decode(w http.ResponseWriter, r *http.Request, into *Request) error {
	if r.Method != http.MethodPost {
		return fmt.Errorf("method %s not allowed; POST a JSON request", r.Method)
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return fmt.Errorf("%w (limit %d bytes)", errTooLarge, mbe.Limit)
		}
		return err
	}
	return nil
}

// decodeStatus maps a decode error to its HTTP status.
func decodeStatus(err error) int {
	if errors.Is(err, errTooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// resolveSource maps a request to concrete NF source text.
func (s *Server) resolveSource(req *Request) (string, error) {
	switch {
	case req.Source != "" && req.NF != "":
		return "", errors.New(`give either "nf" (a library name) or "source", not both`)
	case req.Source != "":
		return req.Source, nil
	case req.NF != "":
		s.mu.Lock()
		src, ok := s.library[req.NF]
		s.mu.Unlock()
		if !ok {
			return "", fmt.Errorf("unknown NF %q; GET /v1/nfs lists the library", req.NF)
		}
		return src, nil
	default:
		return "", errors.New(`request needs "nf" (a library name) or "source" (inline NF dialect)`)
	}
}

// compiledNF returns the cached compiled NF for a source hash, compiling on
// miss. A cached NF carries its memoized behaviour enumeration and
// annotated-graph cache, which is most of a repeated analysis's cost.
func (s *Server) compiledNF(hash, source string) (*clara.NF, error) {
	if nf, ok := s.nfs.get(hash); ok {
		s.metrics.Counter("clara_serve_nf_cache_hits_total").Inc()
		return nf, nil
	}
	s.metrics.Counter("clara_serve_nf_cache_misses_total").Inc()
	nf, err := clara.CompileNF(source)
	if err != nil {
		return nil, err
	}
	s.nfs.add(hash, nf)
	return nf, nil
}

// resultKey is the rendered-result cache identity: endpoint + NF hash +
// every input that changes the answer. Seed and Faults are simulation
// inputs (measure). Timeout is excluded: a rendered body is valid for any
// deadline.
func resultKey(endpoint, hash string, req *Request) string {
	return strings.Join([]string{endpoint, hash, req.Target, req.Workload, req.Budget,
		strconv.FormatInt(req.Seed, 10), req.Faults}, "\x00")
}

// computeBody runs one full analysis and renders and caches the result
// body. compute resolves its NFs (compiled or cached); name labels a
// rendering failure. It runs only inside a job-engine attempt, for sync and
// async requests alike, and ctx is the attempt context, which already
// carries the request's clamped deadline and budget, so cancellation and
// drain aborts flow through one plumbing.
func (s *Server) computeBody(ctx context.Context, endpoint, cacheKey, name string,
	compute func(ctx context.Context) (any, error)) ([]byte, error) {

	if s.testComputeGate != nil {
		s.testComputeGate(ctx)
	}
	ctx = obs.With(ctx, s.metrics)
	ctx = budget.WithUsage(ctx, s.usage)

	s.metrics.Counter("clara_serve_computations_total", "endpoint", endpoint).Inc()
	out, err := compute(ctx)
	if err != nil {
		return nil, err
	}
	rendered, err := json.Marshal(out)
	if err != nil {
		return nil, &budget.PanicError{Stage: "serve", NF: name, Value: err}
	}
	s.results.add(cacheKey, rendered)
	return rendered, nil
}

// analyze is the shared request path behind the synchronous analysis
// endpoints: resolve + hash the NF, consult the result cache, and on a
// miss run compute under the clamped per-request context, singleflight and
// engine admission, caching the rendered body on success.
func (s *Server) analyze(w http.ResponseWriter, r *http.Request, endpoint string,
	compute func(ctx context.Context, nf *clara.NF, req *Request) (any, error)) int {

	var req Request
	if err := decode(w, r, &req); err != nil {
		return writeError(w, decodeStatus(err), err)
	}
	source, err := s.resolveSource(&req)
	if err != nil {
		return writeError(w, http.StatusBadRequest, err)
	}
	sum := sha256.Sum256([]byte(source))
	hash := hex.EncodeToString(sum[:])
	key := resultKey(endpoint, hash, &req)
	return s.cachedFlight(w, endpoint, key, &req, func(ctx context.Context) ([]byte, error) {
		return s.computeBody(ctx, endpoint, key, req.NF, s.withNF(hash, source, &req, compute))
	})
}

// withNF adapts a single-NF analysis to computeBody: the NF is compiled, or
// taken from the cache, inside the computation's engine attempt.
func (s *Server) withNF(hash, source string, req *Request,
	compute func(ctx context.Context, nf *clara.NF, req *Request) (any, error)) func(context.Context) (any, error) {
	return func(ctx context.Context) (any, error) {
		nf, err := s.compiledNF(hash, source)
		if err != nil {
			return nil, err
		}
		return compute(ctx, nf, req)
	}
}

// cachedFlight is the result cache → breaker → singleflight → engine
// admission pipeline shared by analyze and the multi-tenant colocate
// endpoint: on a cache miss the flight leader clamps the request's timeout
// and budget, then runs compute through the engine's Do, whose attempt is
// the one chaos and panic boundary. The deadline starts before admission,
// so it bounds the queue wait as well as the run, and sharing is scoped to
// requests with an identical timeout spec — a generous request must not
// inherit a 504 from a 1ms leader. The result cache stays timeout-agnostic.
func (s *Server) cachedFlight(w http.ResponseWriter, endpoint, key string, req *Request, compute jobs.Compute) (code int) {
	if body, ok := s.results.get(key); ok {
		s.metrics.Counter("clara_serve_cache_hits_total", "endpoint", endpoint).Inc()
		return writeBody(w, "hit", body)
	}
	s.metrics.Counter("clara_serve_cache_misses_total", "endpoint", endpoint).Inc()
	// A hit is answered in any breaker state; only a miss asks the breaker.
	br := s.breakers[endpoint]
	if ok, retry := br.Allow(); !ok {
		return writeRetryError(w, http.StatusServiceUnavailable,
			fmt.Errorf("endpoint %s shedding load: circuit breaker %s", endpoint, br.State()), retry)
	}

	// The breaker sees each computation that ran once, through its leader.
	// A refusal, a drain or a deadline spent in the queue says nothing about
	// the endpoint's health, and a joiner's outcome is its leader's.
	ran := false
	defer func() {
		if ran {
			br.Record(code >= http.StatusInternalServerError)
		} else {
			br.Release()
		}
	}()
	flightKey := key + "\x00" + req.Timeout
	body, err, shared := s.flight.do(flightKey, func() ([]byte, error) {
		ctx, cancel, err := cliutil.RequestContext(s.base, req.Timeout, req.Budget, s.cfg.MaxTimeout, s.cfg.MaxBudget)
		if err != nil {
			return nil, err
		}
		defer cancel()
		var body []byte
		body, ran, err = s.engine.Do(ctx, endpoint, flightKey, compute)
		return body, err
	})
	if shared {
		s.metrics.Counter("clara_serve_singleflight_shared_total", "endpoint", endpoint).Inc()
	}
	if err != nil {
		return writeComputeError(w, err)
	}
	cacheState := "miss"
	if shared {
		cacheState = "shared"
	}
	return writeBody(w, cacheState, body)
}

type adviseResponse struct {
	NF       string         `json:"nf"`
	Workload string         `json:"workload"`
	Advice   []clara.Advice `json:"advice"`
}

func (s *Server) handleAdvise(w http.ResponseWriter, r *http.Request) int {
	return s.analyze(w, r, "advise", s.adviseCompute)
}

func (s *Server) adviseCompute(ctx context.Context, nf *clara.NF, req *Request) (any, error) {
	wl, err := clara.ParseWorkload(req.Workload)
	if err != nil {
		return nil, err
	}
	advice, err := clara.AdviseContext(ctx, nf, wl, s.cfg.Parallel)
	if err != nil {
		return nil, err
	}
	return adviseResponse{NF: nf.Name(), Workload: req.Workload, Advice: advice}, nil
}

type predictResponse struct {
	NF         string            `json:"nf"`
	Target     string            `json:"target"`
	Workload   string            `json:"workload"`
	Prediction *clara.Prediction `json:"prediction"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) int {
	return s.analyze(w, r, "predict", s.predictCompute)
}

func (s *Server) predictCompute(ctx context.Context, nf *clara.NF, req *Request) (any, error) {
	t, err := clara.BuiltinTarget(req.Target)
	if err != nil {
		return nil, err
	}
	wl, err := clara.ParseWorkload(req.Workload)
	if err != nil {
		return nil, err
	}
	pred, err := nf.PredictContext(ctx, t, wl, clara.Hints{})
	if err != nil {
		return nil, err
	}
	return predictResponse{NF: nf.Name(), Target: req.Target, Workload: req.Workload, Prediction: pred}, nil
}

type partialResponse struct {
	NF       string                 `json:"nf"`
	Target   string                 `json:"target"`
	Workload string                 `json:"workload"`
	Analysis *clara.PartialAnalysis `json:"analysis"`
}

func (s *Server) handlePartial(w http.ResponseWriter, r *http.Request) int {
	return s.analyze(w, r, "partial", s.partialCompute)
}

func (s *Server) partialCompute(ctx context.Context, nf *clara.NF, req *Request) (any, error) {
	t, err := clara.BuiltinTarget(req.Target)
	if err != nil {
		return nil, err
	}
	wl, err := clara.ParseWorkload(req.Workload)
	if err != nil {
		return nil, err
	}
	an, err := clara.AnalyzePartialContext(ctx, nf, t, wl, clara.DefaultPCIe(), s.cfg.Parallel)
	if err != nil {
		return nil, err
	}
	return partialResponse{NF: nf.Name(), Target: req.Target, Workload: req.Workload, Analysis: an}, nil
}

// measureResponse summarizes a simulator run. FlowCacheHitRate is a pointer
// because the simulator reports NaN when the mapping uses no flow cache and
// NaN is not representable in JSON — absent means "no flow cache".
type measureResponse struct {
	NF               string             `json:"nf"`
	Target           string             `json:"target"`
	Workload         string             `json:"workload"`
	Seed             int64              `json:"seed"`
	Faults           string             `json:"faults,omitempty"`
	Packets          int                `json:"packets"`
	Drops            int                `json:"drops"`
	Errors           int                `json:"errors"`
	MeanCycles       float64            `json:"mean_cycles"`
	MeanNanos        float64            `json:"mean_nanos"`
	P50Cycles        float64            `json:"p50_cycles"`
	P99Cycles        float64            `json:"p99_cycles"`
	Breakdown        clara.Breakdown    `json:"breakdown"`
	CacheHitRate     map[string]float64 `json:"cache_hit_rate,omitempty"`
	FlowCacheHitRate *float64           `json:"flow_cache_hit_rate,omitempty"`
	FaultReport      *clara.FaultReport `json:"fault_report,omitempty"`
}

// handleMeasure runs the NF on the cycle-level simulator — the "Actual"
// side of the validation — against a synthetic trace generated from the
// workload spec. The generated trace is in memory, so it runs as one
// window: the classic loop.
func (s *Server) handleMeasure(w http.ResponseWriter, r *http.Request) int {
	return s.analyze(w, r, "measure", s.measureCompute)
}

func (s *Server) measureCompute(ctx context.Context, nf *clara.NF, req *Request) (any, error) {
	t, err := clara.BuiltinTarget(req.Target)
	if err != nil {
		return nil, err
	}
	wl, err := clara.ParseWorkload(req.Workload)
	if err != nil {
		return nil, err
	}
	prof, err := clara.ParseTrafficProfile(req.Workload)
	if err != nil {
		return nil, err
	}
	faults, err := clara.ParseFaults(req.Faults)
	if err != nil {
		return nil, err
	}
	tr, err := clara.GenerateTraceContext(ctx, prof)
	if err != nil {
		return nil, err
	}
	m, err := nf.MapContext(ctx, t, wl, clara.Hints{})
	if err != nil {
		return nil, err
	}
	res, err := nf.MeasureContext(ctx, t, m, tr, req.Seed, faults)
	if err != nil {
		return nil, err
	}
	drops := 0
	for i := range res.Packets {
		if res.Packets[i].Verdict != 0 {
			drops++
		}
	}
	out := measureResponse{
		NF: nf.Name(), Target: req.Target, Workload: req.Workload,
		Seed: req.Seed, Faults: req.Faults,
		Packets: len(res.Packets), Drops: drops, Errors: res.Errors,
		MeanCycles: res.MeanLatency(), MeanNanos: t.CyclesToNanos(res.MeanLatency()),
		P50Cycles: res.Percentile(50), P99Cycles: res.Percentile(99),
		Breakdown: res.MeanBreakdown(), CacheHitRate: res.CacheHitRate,
	}
	if fc := res.FlowCacheHitRate; fc == fc { // not NaN: the mapping has a flow cache
		out.FlowCacheHitRate = &fc
	}
	if res.Faults.Any() {
		fr := res.Faults
		out.FaultReport = &fr
	}
	return out, nil
}

// colocateResponse is one co-location analysis: per-tenant contention-aware
// predictions on the shared target.
type colocateResponse struct {
	Target  string           `json:"target"`
	Tenants []colocateTenant `json:"tenants"`
}

type colocateTenant struct {
	NF       string  `json:"nf"`
	Weight   float64 `json:"weight"`
	Workload string  `json:"workload"`
	// Prediction is null for deactivated tenants (weight < 0).
	Prediction *clara.Prediction `json:"prediction,omitempty"`
}

// handleColocate predicts every tenant's performance when the named NFs are
// co-located on one target NIC (clara.PredictColocated: weighted slices plus
// fitted contention slowdowns). The result cache key is the ordered NF set —
// each tenant's source hash, weight and workload — plus target and budget,
// so permuting tenants or reweighting them is a different cache entry while
// a repeated scenario is answered from memory.
func (s *Server) handleColocate(w http.ResponseWriter, r *http.Request) int {
	var req Request
	if err := decode(w, r, &req); err != nil {
		return writeError(w, decodeStatus(err), err)
	}
	if len(req.Tenants) == 0 {
		return writeError(w, http.StatusBadRequest, errors.New(`"tenants" must name at least one NF`))
	}
	sources := make([]string, len(req.Tenants))
	hashes := make([]string, len(req.Tenants))
	workloads := make([]string, len(req.Tenants))
	keyParts := []string{"colocate", req.Target, req.Workload, req.Budget}
	for i, ts := range req.Tenants {
		lookup := Request{NF: ts.NF, Source: ts.Source}
		src, err := s.resolveSource(&lookup)
		if err != nil {
			return writeError(w, http.StatusBadRequest, fmt.Errorf("tenant %d: %w", i, err))
		}
		sources[i] = src
		workloads[i] = ts.Workload
		if workloads[i] == "" {
			workloads[i] = req.Workload
		}
		sum := sha256.Sum256([]byte(src))
		hashes[i] = hex.EncodeToString(sum[:])
		keyParts = append(keyParts, hashes[i],
			strconv.FormatFloat(ts.weight(), 'g', -1, 64), ts.Workload)
	}
	key := strings.Join(keyParts, "\x00")

	return s.cachedFlight(w, "colocate", key, &req, func(ctx context.Context) ([]byte, error) {
		return s.computeBody(ctx, "colocate", key, "colocate", func(ctx context.Context) (any, error) {
			nfs := make([]*clara.NF, len(req.Tenants))
			weights := make([]float64, len(req.Tenants))
			wls := make([]clara.Workload, len(req.Tenants))
			for i := range req.Tenants {
				nf, err := s.compiledNF(hashes[i], sources[i])
				if err != nil {
					return nil, fmt.Errorf("tenant %d: %w", i, err)
				}
				wl, err := clara.ParseWorkload(workloads[i])
				if err != nil {
					return nil, fmt.Errorf("tenant %d: %w", i, err)
				}
				nfs[i], weights[i], wls[i] = nf, req.Tenants[i].weight(), wl
			}
			t, err := clara.BuiltinTarget(req.Target)
			if err != nil {
				return nil, err
			}
			preds, err := clara.PredictColocatedContext(ctx, nfs, weights, t, wls)
			if err != nil {
				return nil, err
			}
			out := colocateResponse{Target: req.Target, Tenants: make([]colocateTenant, len(preds))}
			for i, p := range preds {
				out.Tenants[i] = colocateTenant{
					NF: nfs[i].Name(), Weight: weights[i], Workload: workloads[i], Prediction: p,
				}
			}
			return out, nil
		})
	})
}

// sweepResponse is the jobs-only "sweep" kind: one prediction per known
// target, the batch shape of the paper's cross-NIC clarity question.
type sweepResponse struct {
	NF          string            `json:"nf"`
	Workload    string            `json:"workload"`
	Predictions []sweepPrediction `json:"predictions"`
}

type sweepPrediction struct {
	Target     string            `json:"target"`
	Prediction *clara.Prediction `json:"prediction"`
}

func (s *Server) sweepCompute(ctx context.Context, nf *clara.NF, req *Request) (any, error) {
	wl, err := clara.ParseWorkload(req.Workload)
	if err != nil {
		return nil, err
	}
	targets := clara.Targets()
	out := sweepResponse{NF: nf.Name(), Workload: req.Workload,
		Predictions: make([]sweepPrediction, 0, len(targets))}
	for _, name := range targets {
		t, err := clara.BuiltinTarget(name)
		if err != nil {
			return nil, err
		}
		pred, err := nf.PredictContext(ctx, t, wl, clara.Hints{})
		if err != nil {
			return nil, fmt.Errorf("target %s: %w", name, err)
		}
		out.Predictions = append(out.Predictions, sweepPrediction{Target: name, Prediction: pred})
	}
	return out, nil
}

// NFInfo describes one library NF in GET /v1/nfs.
type NFInfo struct {
	Name  string `json:"name"`
	Hash  string `json:"hash"`
	Bytes int    `json:"bytes"`
}

type nfsResponse struct {
	NFs     []NFInfo `json:"nfs"`
	Targets []string `json:"targets"`
}

func (s *Server) handleNFs(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodGet {
		return writeError(w, http.StatusMethodNotAllowed, errors.New("GET only"))
	}
	s.mu.Lock()
	infos := make([]NFInfo, 0, len(s.library))
	for name, src := range s.library {
		sum := sha256.Sum256([]byte(src))
		infos = append(infos, NFInfo{Name: name, Hash: hex.EncodeToString(sum[:]), Bytes: len(src)})
	}
	s.mu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	body, err := json.Marshal(nfsResponse{NFs: infos, Targets: clara.Targets()})
	if err != nil {
		return writeError(w, http.StatusInternalServerError, err)
	}
	return writeBody(w, "none", body)
}

// handleMetrics exports the registry in Prometheus text format, refreshing
// the budget-usage and cache-size gauges at scrape time.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.usage.Snapshot(s.cfg.MaxBudget)
	s.metrics.Gauge("clara_budget_symexec_steps").Set(snap.SymExecSteps)
	s.metrics.Gauge("clara_budget_symexec_paths").Set(snap.SymExecPaths)
	s.metrics.Gauge("clara_budget_sim_steps").Set(snap.SimSteps)
	s.metrics.Gauge("clara_budget_sim_events").Set(snap.SimEvents)
	s.metrics.Gauge("clara_budget_trace_packets").Set(snap.TracePackets)
	s.metrics.Gauge("clara_serve_nf_cache_entries").Set(int64(s.nfs.len()))
	s.metrics.Gauge("clara_serve_result_cache_entries").Set(int64(s.results.len()))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WritePrometheus(w)
}
