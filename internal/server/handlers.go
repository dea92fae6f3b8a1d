package server

import (
	"context"
	"net/http"
	"time"

	"dbsvec"
	"dbsvec/internal/fault"
)

// assignRequest is the /v1/assign body. Exactly one of Point (single) or
// Points (batch) must be set. Model may be omitted when exactly one model is
// loaded. TimeoutMs overrides the server's default per-request deadline,
// clamped to the configured maximum.
type assignRequest struct {
	Model     string      `json:"model,omitempty"`
	Point     []float64   `json:"point,omitempty"`
	Points    [][]float64 `json:"points,omitempty"`
	TimeoutMs int64       `json:"timeout_ms,omitempty"`
}

// assignResponse is the /v1/assign success body. Labels holds one cluster id
// (or -1 for noise) per input point, in input order. Degraded marks a
// response computed on the stepped-down nearest-SV path under overload —
// the per-request form of the training-side degradation taxonomy.
type assignResponse struct {
	Model    string  `json:"model"`
	Clusters int     `json:"clusters"`
	Labels   []int32 `json:"labels"`
	Degraded bool    `json:"degraded"`
}

// slowHandlerDelay is the stall injected by the fault.HandlerSlow point —
// long enough to overlap a burst and outlive a short request deadline,
// short enough to keep fault sweeps quick.
const slowHandlerDelay = 50 * time.Millisecond

func (s *Server) handleAssign(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.Add(1)
	if s.draining.Load() {
		s.writeError(w, drainingError())
		return
	}
	var req assignRequest
	if ae := decodeJSON(w, r, s.cfg.MaxBodyBytes, &req); ae != nil {
		s.writeError(w, ae)
		return
	}
	rows := req.Points
	switch {
	case req.Point != nil && req.Points != nil:
		s.writeError(w, badRequest(CodeInvalidParams, `set "point" or "points", not both`))
		return
	case req.Point != nil:
		rows = [][]float64{req.Point}
	case len(rows) == 0:
		s.writeError(w, badRequest(CodeInvalidParams, `no points: set "point" or a non-empty "points"`))
		return
	}
	m, name, ae := s.lookup(req.Model)
	if ae != nil {
		s.writeError(w, ae)
		return
	}
	ds, err := dbsvec.NewDataset(rows)
	if err != nil {
		s.writeError(w, badRequest(CodeInvalidParams, "invalid points: %v", err))
		return
	}
	// Up-front shape validation: a dimensionality mismatch is a clear 400
	// before any admission or assignment work.
	if err := m.CheckAssignable(ds); err != nil {
		s.writeError(w, err)
		return
	}

	// Deadline propagation: the request-scoped deadline covers queueing AND
	// the assign fan-out. r.Context() already ends when the client goes
	// away, so an abandoned connection cancels its work too.
	// The clamp compares milliseconds: converting an unclamped timeout_ms
	// to a Duration first would overflow from 1e13 on and wrap negative.
	timeout := s.cfg.DefaultTimeout
	switch {
	case req.TimeoutMs > s.cfg.MaxTimeout.Milliseconds():
		timeout = s.cfg.MaxTimeout
	case req.TimeoutMs > 0:
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// Admission: seat the batch cost or return the typed shed error.
	cost := int64(len(rows))
	if err := s.gate.Acquire(ctx, cost); err != nil {
		s.writeError(w, err)
		return
	}
	defer s.gate.Release(cost)

	// Slow-handler injection stalls while holding the admission seat — the
	// worst-case slow request — but stays context-aware, so the deadline
	// still bounds it.
	if fault.Armed(fault.HandlerSlow) {
		t := time.NewTimer(slowHandlerDelay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
		}
	}

	// Graceful degradation: under sustained pressure step the fan-out down
	// to one worker and skip the boundary evaluations (nearest-SV path).
	degraded := s.gate.DegradedMode()
	var labels []int32
	if degraded {
		labels, err = m.AssignNearestContext(ctx, ds, 1)
	} else {
		labels, err = m.AssignContext(ctx, ds, s.cfg.Workers)
	}
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.metrics.assigns.Add(1)
	s.metrics.assignedPoints.Add(int64(len(labels)))
	if degraded {
		s.metrics.degraded.Add(1)
	}
	writeJSON(w, http.StatusOK, assignResponse{
		Model:    name,
		Clusters: m.Clusters(),
		Labels:   labels,
		Degraded: degraded,
	})
}

// modelInfo is the inspection record of one loaded model.
type modelInfo struct {
	Name             string  `json:"name"`
	Dim              int     `json:"dim"`
	Precision        string  `json:"precision"`
	Eps              float64 `json:"eps"`
	MinPts           int     `json:"min_pts"`
	Clusters         int     `json:"clusters"`
	Snapshots        int     `json:"snapshots"`
	SupportVectors   int     `json:"support_vectors"`
	DegradedClusters []int32 `json:"degraded_clusters,omitempty"`
}

func infoOf(name string, m *dbsvec.Model) modelInfo {
	return modelInfo{
		Name:             name,
		Dim:              m.Dim(),
		Precision:        m.Precision().String(),
		Eps:              m.Eps(),
		MinPts:           m.MinPts(),
		Clusters:         m.Clusters(),
		Snapshots:        m.Snapshots(),
		SupportVectors:   m.SupportVectors(),
		DegradedClusters: m.DegradedClusters(),
	}
}

func (s *Server) handleModelsList(w http.ResponseWriter, _ *http.Request) {
	s.metrics.requests.Add(1)
	set := s.registry()
	infos := make([]modelInfo, 0, len(set.names))
	for _, n := range set.names {
		infos = append(infos, infoOf(n, set.byName[n]))
	}
	writeJSON(w, http.StatusOK, struct {
		Models []modelInfo `json:"models"`
	}{Models: infos})
}

func (s *Server) handleModelGet(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.Add(1)
	name := r.PathValue("name")
	m, _, ae := s.lookup(name)
	if ae != nil {
		s.writeError(w, ae)
		return
	}
	writeJSON(w, http.StatusOK, infoOf(name, m))
}

// handleModelPut hot-swaps (or first-loads) a model: the body is a binary
// model artifact (Model.Save bytes); on success the registry pointer is
// swapped atomically, so concurrent assigns see old or new, never a mix.
func (s *Server) handleModelPut(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.Add(1)
	if s.draining.Load() {
		s.writeError(w, drainingError())
		return
	}
	name := r.PathValue("name")
	m, err := dbsvec.LoadModel(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.writeError(w, err) // classify: ErrMalformed -> 400 malformed_model
		return
	}
	replaced := s.SetModel(name, m)
	s.metrics.modelSwaps.Add(1)
	status := http.StatusCreated
	if replaced {
		status = http.StatusOK
	}
	writeJSON(w, status, infoOf(name, m))
}

func (s *Server) handleModelDelete(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.Add(1)
	if s.draining.Load() {
		s.writeError(w, drainingError())
		return
	}
	name := r.PathValue("name")
	if !s.RemoveModel(name) {
		s.writeError(w, &apiError{status: http.StatusNotFound, code: CodeUnknownModel,
			msg: "model " + name + " is not loaded"})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
