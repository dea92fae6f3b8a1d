package svdd

import (
	"errors"
	"fmt"
	"math"

	"dbsvec/internal/vec"
)

// Snapshot is the complete, minimal serializable state of a trained Model:
// everything Eval and TopSupportVectors need, and nothing
// the solver keeps for its own bookkeeping (kernel matrix, gradients,
// per-point caps). Only support vectors are retained — non-SV multipliers
// are zero and contribute nothing to Eq. 12 — together with their
// coordinates, so a snapshot is self-contained: it can be evaluated in a
// process that never saw the training dataset.
//
// The slices are parallel over the support vectors; Coords is row-major
// (len = len(IDs)·Dim). Snapshots are plain data with no hidden state, so
// they are what internal/data's model codec reads and writes.
type Snapshot struct {
	// Dim is the coordinate dimensionality.
	Dim int
	// Nu, Sigma and R2 are the trained model's penalty factor, kernel width
	// and squared feature-space radius.
	Nu    float64
	Sigma float64
	R2    float64
	// AlphaDot is the cached αᵀKα term of Eq. 12.
	AlphaDot float64
	// Iterations and Converged record the solve's outcome.
	Iterations int
	Converged  bool
	// IDs are the support vectors' global training-dataset ids, which
	// SupportVectors and TopSupportVectors report; a detached evaluation
	// never dereferences them.
	IDs []int32
	// Alpha are the support vectors' Lagrange multipliers.
	Alpha []float64
	// Score are the feature-space boundary scores (distance² to the sphere
	// center) backing TopSupportVectors' ranking.
	Score []float64
	// Coords are the support vectors' coordinates, row-major.
	Coords []float64
}

// ErrBadSnapshot is returned by FromSnapshot for structurally invalid
// snapshots (mismatched slice lengths, non-positive dimension or kernel
// width, no support vectors).
var ErrBadSnapshot = errors.New("svdd: invalid model snapshot")

// SVCount returns the number of support vectors in the snapshot.
func (s *Snapshot) SVCount() int { return len(s.IDs) }

// validate checks the structural invariants FromSnapshot (and the codec)
// rely on.
func (s *Snapshot) validate() error {
	if s.Dim <= 0 {
		return fmt.Errorf("%w: dimension %d", ErrBadSnapshot, s.Dim)
	}
	k := len(s.IDs)
	if k == 0 {
		return fmt.Errorf("%w: no support vectors", ErrBadSnapshot)
	}
	if len(s.Alpha) != k || len(s.Score) != k || len(s.Coords) != k*s.Dim {
		return fmt.Errorf("%w: inconsistent lengths (ids %d, alpha %d, score %d, coords %d, dim %d)",
			ErrBadSnapshot, k, len(s.Alpha), len(s.Score), len(s.Coords), s.Dim)
	}
	if !(s.Sigma > 0) || math.IsInf(s.Sigma, 0) {
		return fmt.Errorf("%w: kernel width %g", ErrBadSnapshot, s.Sigma)
	}
	return nil
}

// Snapshot extracts the serializable state of the model: the support vectors
// (α_i above the solver's zero threshold) with their multipliers, boundary
// scores and coordinates, plus the scalar terms Eval needs. The returned
// snapshot owns its slices; mutating the model afterwards does not affect it.
func (m *Model) Snapshot() *Snapshot {
	dim := m.ds.Dim()
	s := &Snapshot{
		Dim:        dim,
		Nu:         m.Nu,
		Sigma:      m.Sigma,
		R2:         m.R2,
		AlphaDot:   m.alphaDot,
		Iterations: m.Iterations,
		Converged:  m.Converged,
	}
	// Exact-size slices: a retained snapshot lives as long as its Result,
	// so append's spare capacity would be held for that whole time.
	k := 0
	for _, a := range m.Alpha {
		if a > svThreshold {
			k++
		}
	}
	if k == 0 {
		return s
	}
	s.IDs = make([]int32, 0, k)
	s.Alpha = make([]float64, 0, k)
	s.Score = make([]float64, k)
	s.Coords = make([]float64, 0, k*dim)
	for i, a := range m.Alpha {
		if a <= svThreshold {
			continue
		}
		if m.svScore != nil {
			s.Score[len(s.IDs)] = m.svScore[i]
		}
		s.IDs = append(s.IDs, m.IDs[i])
		s.Alpha = append(s.Alpha, a)
		s.Coords = append(s.Coords, m.point(i)...)
	}
	return s
}

// FromSnapshot rebuilds an evaluable Model from a snapshot. The model is
// *detached*: it carries its own copy of the support-vector coordinates and
// needs no training dataset, so Eval, SupportVectors and TopSupportVectors
// all work in a fresh process. Solver-only
// capabilities are absent (BoundedSupportVectors returns nil).
//
// The model aliases the snapshot's slices; callers must not mutate the
// snapshot afterwards.
func FromSnapshot(s *Snapshot) (*Model, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	ds, err := vec.NewDatasetUnchecked(s.Coords, s.Dim)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return &Model{
		IDs:        s.IDs,
		Alpha:      s.Alpha,
		Sigma:      s.Sigma,
		Nu:         s.Nu,
		R2:         s.R2,
		Iterations: s.Iterations,
		Converged:  s.Converged,
		ds:         ds,
		alphaDot:   s.AlphaDot,
		svScore:    s.Score,
		detached:   true,
	}, nil
}
