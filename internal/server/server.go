// Package server is the online half of the production story: dbsvecd's
// HTTP/JSON serving layer over retained model artifacts (dbsvec.Model). It
// loads one or more saved models, serves point-to-cluster assignment against
// their SVDD boundaries, and wraps the whole request path in a robustness
// layer built from the library's own machinery:
//
//   - Admission control: a weighted-semaphore gate sized in batch cost
//     (points) with a bounded FIFO queue. Overload sheds load as typed 429s
//     with Retry-After hints instead of collapsing into unbounded
//     concurrency — see admission.go.
//   - Deadline propagation: every request carries a deadline (its own
//     timeout_ms, clamped to the server maximum, or the server default)
//     threaded as a context through admission queueing and the assign
//     fan-out (Model.AssignContext polls it mid-batch), so an expired
//     request returns a typed 504 instead of a hung connection.
//   - Graceful degradation: sustained admission pressure flips the server
//     into degraded mode — assignment steps down to one worker and to the
//     nearest-SV fallback path (Model.AssignNearestContext), and every
//     response carries Degraded: true so clients see the accuracy/cost dial
//     move (the per-request form of the PR 5 degradation taxonomy).
//   - Lifecycle robustness: hot-swap of models behind an atomic pointer,
//     drain-aware readiness, and panic-to-500 containment reusing the
//     engine's WorkerPanicError recovery semantics.
//
// The package is transport + lifecycle only: assignment semantics live
// entirely in dbsvec.Model.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dbsvec"
	"dbsvec/internal/fault"
)

// Config sizes the serving layer. The zero value of any field selects the
// default documented on it.
type Config struct {
	// Capacity is the admission gate's total cost budget: the number of
	// points that may be in assignment flight at once. Default 4096.
	Capacity int64
	// MaxQueue bounds the admission queue: requests beyond it are shed
	// immediately with 429. Default 64.
	MaxQueue int
	// MaxQueueWait bounds how long an admitted-to-queue request may wait
	// for a seat before it is shed with 429. Default 1s.
	MaxQueueWait time.Duration
	// RetryAfter is the client backoff hint attached to 429 responses.
	// Default 1s.
	RetryAfter time.Duration
	// DefaultTimeout is the per-request deadline when the request does not
	// set timeout_ms. Default 5s.
	DefaultTimeout time.Duration
	// MaxTimeout clamps the per-request timeout_ms. Default 30s.
	MaxTimeout time.Duration
	// Workers sizes the assign fan-out per request (0 = all CPUs). Degraded
	// mode overrides it down to 1. Default 0.
	Workers int
	// DegradeAfter is the sustained-pressure threshold: the number of
	// consecutive pressured admissions (queued or shed) after which the
	// server enters degraded mode; it leaves once the score decays back to
	// zero. Default 8.
	DegradeAfter int
	// MaxBodyBytes bounds request bodies (assign JSON and model uploads).
	// Default 64 MiB.
	MaxBodyBytes int64
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 4096
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	} else if c.MaxQueue == 0 {
		c.MaxQueue = 64
	}
	if c.MaxQueueWait <= 0 {
		c.MaxQueueWait = time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.DegradeAfter <= 0 {
		c.DegradeAfter = 8
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	return c
}

// modelSet is the immutable model registry snapshot readers load through
// one atomic pointer; hot-swaps build a new set and swap the pointer, so an
// in-flight assign keeps the model it resolved for its whole batch.
type modelSet struct {
	byName map[string]*dbsvec.Model
	names  []string // sorted
}

// Server is the dbsvecd serving core: registry, admission gate, metrics and
// the HTTP handler tree. Create with New, mount Handler on an http.Server,
// call BeginDrain before http.Server.Shutdown.
type Server struct {
	cfg  Config
	gate *gate
	mux  *http.ServeMux

	swapMu sync.Mutex // serializes registry writers
	models atomic.Pointer[modelSet]

	draining atomic.Bool
	metrics  metrics
}

// New builds a Server with no models loaded; readiness stays 503 until the
// first SetModel.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:  cfg,
		gate: newGate(cfg.Capacity, cfg.MaxQueue, cfg.MaxQueueWait, cfg.RetryAfter, cfg.DegradeAfter),
	}
	s.models.Store(&modelSet{byName: map[string]*dbsvec.Model{}})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/assign", s.handleAssign)
	mux.HandleFunc("GET /v1/models", s.handleModelsList)
	mux.HandleFunc("GET /v1/models/{name}", s.handleModelGet)
	mux.HandleFunc("PUT /v1/models/{name}", s.handleModelPut)
	mux.HandleFunc("DELETE /v1/models/{name}", s.handleModelDelete)
	s.mux = mux
	return s
}

// Handler returns the server's HTTP handler: the route tree wrapped in the
// panic-containment boundary.
func (s *Server) Handler() http.Handler { return s.containPanics(s.mux) }

// registry loads the current model set snapshot.
func (s *Server) registry() *modelSet { return s.models.Load() }

// SetModel installs (or hot-swaps) a model under name via copy-on-write +
// atomic pointer swap: concurrent assigns see either the old or the new
// model, never a mix. Reports whether an existing model was replaced.
func (s *Server) SetModel(name string, m *dbsvec.Model) bool {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	cur := s.registry()
	_, replaced := cur.byName[name]
	next := &modelSet{byName: make(map[string]*dbsvec.Model, len(cur.byName)+1)}
	for k, v := range cur.byName {
		next.byName[k] = v
	}
	next.byName[name] = m
	next.names = sortedNames(next.byName)
	s.models.Store(next)
	return replaced
}

// RemoveModel drops name from the registry; reports whether it was present.
func (s *Server) RemoveModel(name string) bool {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	cur := s.registry()
	if _, ok := cur.byName[name]; !ok {
		return false
	}
	next := &modelSet{byName: make(map[string]*dbsvec.Model, len(cur.byName)-1)}
	for k, v := range cur.byName {
		if k != name {
			next.byName[k] = v
		}
	}
	next.names = sortedNames(next.byName)
	s.models.Store(next)
	return true
}

func sortedNames(m map[string]*dbsvec.Model) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// lookup resolves a request's model: by name, or the single loaded model
// when the request names none.
func (s *Server) lookup(name string) (*dbsvec.Model, string, *apiError) {
	set := s.registry()
	if name == "" {
		if len(set.names) == 1 {
			n := set.names[0]
			return set.byName[n], n, nil
		}
		return nil, "", badRequest(CodeInvalidParams,
			"request names no model and %d models are loaded; set \"model\"", len(set.names))
	}
	if m, ok := set.byName[name]; ok {
		return m, name, nil
	}
	return nil, "", &apiError{status: http.StatusNotFound, code: CodeUnknownModel,
		msg: fmt.Sprintf("model %q is not loaded", name)}
}

// BeginDrain flips the server into draining: readiness goes 503, new assigns
// and model writes are rejected with the typed draining error, queued
// admissions are flushed with the same, and in-flight requests keep their
// seats until they finish. Safe to call more than once. Pair with
// http.Server.Shutdown, which then waits for the in-flight requests.
func (s *Server) BeginDrain() {
	if s.draining.Swap(true) {
		return
	}
	s.gate.Close()
}

// DegradedMode reports whether sustained admission pressure currently has
// assignment on the stepped-down path.
func (s *Server) DegradedMode() bool { return s.gate.DegradedMode() }

// containPanics is the outermost recover boundary: a panic that escapes a
// handler — including a *WorkerPanicError re-panicked by the engine fan-out —
// becomes a typed 500 response and the server keeps serving. The engine
// already converted worker panics to typed errors with the original stack;
// AsWorkerPanic passes those through unchanged.
func (s *Server) containPanics(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				if v == http.ErrAbortHandler { // connection-level abort, not a failure
					panic(v)
				}
				pe := fault.AsWorkerPanic(v)
				s.writeError(w, &apiError{status: http.StatusInternalServerError,
					code: CodeWorkerPanic, msg: "panic contained", cause: pe})
			}
		}()
		h.ServeHTTP(w, r)
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case s.draining.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
	case len(s.registry().names) == 0:
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "no models loaded")
	default:
		fmt.Fprintln(w, "ready")
	}
}

// writeError renders the typed error envelope (after classification) and
// counts it.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	ae := classify(err)
	s.metrics.count(ae)
	info := errorInfo{Code: ae.code, Message: ae.msg}
	if ae.cause != nil {
		info.Detail = ae.cause.Error()
	}
	if ae.retryAfter > 0 {
		secs := int64((ae.retryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
		info.RetryAfterMs = ae.retryAfter.Milliseconds()
	}
	writeJSON(w, ae.status, errorBody{Error: info})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// decodeJSON parses a bounded JSON body into v with unknown fields rejected.
func decodeJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) *apiError {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return &apiError{status: http.StatusRequestEntityTooLarge, code: CodeBatchTooLarge,
				msg: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)}
		}
		return badRequest(CodeInvalidParams, "malformed JSON body: %v", err)
	}
	return nil
}
