package dbsvec

import (
	"errors"
	"fmt"
	"io"

	"dbsvec/internal/data"
	"dbsvec/internal/engine"
	"dbsvec/internal/svdd"
	"dbsvec/internal/vec"
)

// OneClassOptions configures TrainOneClass.
type OneClassOptions struct {
	// Nu in (0,1] bounds the fraction of training points allowed outside
	// the learned boundary (boundary support vectors) from above and the
	// support-vector fraction from below. 0 selects 0.1.
	Nu float64
	// Sigma is the Gaussian kernel width; 0 selects the paper's σ = r/√2
	// rule over the training set (Section IV-B2).
	Sigma float64
	// Workers fans the kernel-matrix fill across this many goroutines with
	// output bit-identical to the serial fill. 0 selects all CPUs, 1 runs
	// sequentially.
	Workers int
	// MaxIter caps the SMO iterations; 0 selects the solver default
	// (200·n + 10000). A truncated solve returns the best iterate together
	// with ErrNotConverged.
	MaxIter int
}

// validate rejects malformed options with ErrInvalidParams. Every float
// check is written so that NaN, which fails every comparison, fails it too.
func (o OneClassOptions) validate() error {
	if !(o.Nu >= 0 && o.Nu <= 1) {
		return fmt.Errorf("%w: nu %g must be in (0,1] (0 selects 0.1)", ErrInvalidParams, o.Nu)
	}
	if !(o.Sigma >= 0) {
		return fmt.Errorf("%w: sigma %g must be positive (0 selects the σ = r/√2 rule)", ErrInvalidParams, o.Sigma)
	}
	if o.MaxIter < 0 {
		return fmt.Errorf("%w: MaxIter %d must be non-negative (0 selects the solver default)", ErrInvalidParams, o.MaxIter)
	}
	return nil
}

// OneClassModel is a trained Support Vector Domain Description: a minimal
// hypersphere (in Gaussian-kernel feature space) enclosing most of the
// training data. It is the building block DBSVEC uses internally, exposed
// here as a standalone one-class learner for novelty/outlier detection.
type OneClassModel struct {
	m *svdd.Model
	// prec records the training dataset's storage precision for Save.
	prec byte
}

// TrainOneClass fits an SVDD boundary to every point of d.
//
// When the solver exhausts its iteration cap, the model is still returned —
// it is the best feasible iterate — together with ErrNotConverged; check
// Converged (or errors.Is against ErrNotConverged) to decide whether the
// truncated boundary is acceptable. Malformed options wrap ErrInvalidParams.
func TrainOneClass(d *Dataset, opts OneClassOptions) (*OneClassModel, error) {
	if d == nil || d.Len() == 0 {
		return nil, fmt.Errorf("dbsvec: one-class training needs a non-empty dataset")
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	nu := opts.Nu
	if nu == 0 {
		nu = 0.1
	}
	m, err := svdd.Train(d.ds, vec.Iota(d.Len()), svdd.Config{
		Nu:      nu,
		Sigma:   opts.Sigma,
		Workers: engine.ResolveWorkers(opts.Workers),
		MaxIter: opts.MaxIter,
	})
	if err != nil && !errors.Is(err, svdd.ErrNotConverged) && !errors.Is(err, svdd.ErrAllSupportVectors) {
		return nil, err
	}
	if m == nil {
		return nil, err
	}
	prec := data.ModelPrecisionF64
	if d.Precision() == PrecisionF32 {
		prec = data.ModelPrecisionF32
	}
	return &OneClassModel{m: m, prec: prec}, err
}

// Score returns the decision value for a point: negative or zero inside the
// learned boundary, positive outside, growing with distance (Eq. 12 of the
// paper, F(x) − R²).
func (oc *OneClassModel) Score(point []float64) float64 {
	return oc.m.Eval(point)
}

// Contains reports whether the point falls inside (or on) the boundary.
func (oc *OneClassModel) Contains(point []float64) bool {
	return oc.m.Eval(point) <= 0
}

// SupportVectors returns the indices (into the training dataset) of the
// points describing the boundary.
func (oc *OneClassModel) SupportVectors() []int32 {
	return oc.m.SupportVectors()
}

// Sigma returns the kernel width used.
func (oc *OneClassModel) Sigma() float64 { return oc.m.Sigma }

// Nu returns the penalty factor the training actually used.
func (oc *OneClassModel) Nu() float64 { return oc.m.Nu }

// Converged reports whether the solver reached the KKT tolerance; false
// means the iteration cap truncated training and the boundary is the best
// iterate found (TrainOneClass also returned ErrNotConverged).
func (oc *OneClassModel) Converged() bool { return oc.m.Converged }

// Iterations returns the number of SMO pair updates the solve performed.
func (oc *OneClassModel) Iterations() int { return oc.m.Iterations }

// Precision returns the storage precision of the training dataset (recorded
// in saved models; files from before the field existed load as PrecisionF64).
func (oc *OneClassModel) Precision() Precision {
	if oc.prec == data.ModelPrecisionF32 {
		return PrecisionF32
	}
	return PrecisionF64
}

// Save streams the model to w in the same versioned binary format as
// clustering model artifacts (one snapshot, kind "one-class"). The encoding
// is canonical: save → load → save is byte-identical.
func (oc *OneClassModel) Save(w io.Writer) error {
	if oc == nil || oc.m == nil {
		return fmt.Errorf("dbsvec: nil one-class model")
	}
	snap := oc.m.Snapshot()
	return data.WriteModel(w, &data.ModelArtifact{
		Kind:      data.ModelKindOneClass,
		Precision: oc.prec,
		Dim:       snap.Dim,
		Entries:   []data.ModelEntry{{Snap: snap}},
	})
}

// LoadOneClass reads a one-class model saved with OneClassModel.Save. The
// loaded model is detached — it carries its own support-vector coordinates —
// so Score, Contains, SupportVectors and the solve metadata all work without
// the training dataset. Malformed input is rejected with an error wrapping
// ErrMalformed; a clustering artifact is rejected too (use LoadModel).
func LoadOneClass(r io.Reader) (*OneClassModel, error) {
	art, err := data.ReadModel(r)
	if err != nil {
		return nil, err
	}
	if art.Kind != data.ModelKindOneClass {
		return nil, fmt.Errorf("%w: artifact is not a one-class model (kind %d)", ErrMalformed, art.Kind)
	}
	m, err := svdd.FromSnapshot(art.Entries[0].Snap)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrMalformed, err)
	}
	return &OneClassModel{m: m, prec: art.Precision}, nil
}
