package data

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"dbsvec/internal/svdd"
)

// Model artifact format: one versioned little-endian container shared by the
// clustering model (per-sub-cluster SVDD snapshots plus run parameters) and
// the standalone one-class model (a single snapshot). Every variable-length
// section is length-prefixed and the counts are overflow-checked before any
// allocation, mirroring the dataset binary format in binio.go; float64
// values round-trip bit-exactly (encoded via Float64bits), so
// save → load → save is byte-identical.
//
//	offset  size  field
//	0       4     magic "DBSM"
//	4       4     format version (uint32, currently 2)
//	8       1     kind (1 = clustering, 2 = one-class)
//	9       1     precision (0 = float64, 1 = float32 storage; v2 only)
//	10      8     eps (float64 bits; 0 for one-class)
//	18      4     minPts (uint32; 0 for one-class)
//	22      4     dim (uint32)
//	26      4     clusters (uint32; 0 for one-class)
//	30      4     entry count (uint32)
//	34      ...   entries
//
// Version 1 files lack the precision byte (the layout above shifted up by
// one); readers accept both and map v1 to precision 0. The precision byte
// records the storage mode of the training dataset so a loaded model can
// report how it was produced; snapshot coordinates are float64 bits in every
// version (in float32 storage they are exact widenings, so nothing is lost).
//
// Each entry:
//
//	0       4     cluster id (int32; final compacted id, 0 for one-class)
//	4       1     flags (bit 0 = degraded, bit 1 = snapshot present)
//	5       ...   snapshot, when present
//
// Each snapshot:
//
//	0       4     dim (uint32, must equal the header dim)
//	4       4     support-vector count k (uint32, >= 1)
//	8       8*5   nu, sigma, r2, alphaDot (float64 bits), iterations (uint64)
//	48      1     converged (0/1)
//	49      4*k   support-vector ids (int32)
//	...     8*k   alphas (float64 bits)
//	...     8*k   boundary scores (float64 bits)
//	...     8*k*dim coordinates, row-major (float64 bits)
const (
	modelMagic     = "DBSM"
	modelVersion   = 2
	modelVersionV1 = 1
)

// Model artifact kinds.
const (
	ModelKindClustering byte = 1
	ModelKindOneClass   byte = 2
)

// Model precision values (ModelArtifact.Precision).
const (
	ModelPrecisionF64 byte = 0
	ModelPrecisionF32 byte = 1
)

const (
	modelFlagDegraded = 1 << 0
	modelFlagSnapshot = 1 << 1

	// maxModelDim / maxModelEntries / maxModelValues bound hostile headers
	// before any count-driven allocation. maxModelValues matches binio's
	// 1 TiB cap on the coordinate payload; it is an int64 so the package
	// builds where int is 32 bits.
	maxModelDim           = 1 << 20
	maxModelEntries       = 1 << 24
	maxModelValues  int64 = (1 << 40) / 8
)

// ModelEntry is one retained sub-cluster model inside a ModelArtifact.
type ModelEntry struct {
	// Cluster is the final (compacted) cluster id the model belongs to;
	// several entries may share one id when sub-clusters merged.
	Cluster int32
	// Degraded marks a sub-cluster whose SVDD training failed recoverably
	// and was completed by exact range expansion; Snap may still be present
	// (the best feasible iterate) or nil (no usable model).
	Degraded bool
	// Snap is the serialized SVDD state; nil only for degraded entries.
	Snap *svdd.Snapshot
}

// ModelArtifact is the deserialized form of a model file: the run
// parameters needed to reproduce assignment semantics plus the retained
// snapshots. Kind distinguishes the clustering container from the
// standalone one-class one (a single entry, no eps/minPts/clusters).
type ModelArtifact struct {
	Kind byte
	// Precision records the storage mode of the training dataset
	// (ModelPrecisionF64 / ModelPrecisionF32). Files written before the field
	// existed (format v1) load as ModelPrecisionF64.
	Precision byte
	Eps       float64
	MinPts    int
	Dim       int
	Clusters  int
	Entries   []ModelEntry
}

// validate rejects artifacts the reader would refuse, so WriteModel can
// never produce an unreadable file.
func (a *ModelArtifact) validate() error {
	if a.Kind != ModelKindClustering && a.Kind != ModelKindOneClass {
		return fmt.Errorf("data: unknown model kind %d", a.Kind)
	}
	if a.Precision > ModelPrecisionF32 {
		return fmt.Errorf("data: unknown model precision %d", a.Precision)
	}
	if a.Dim <= 0 || a.Dim > maxModelDim {
		return fmt.Errorf("data: model dimensionality %d out of range", a.Dim)
	}
	if math.IsNaN(a.Eps) || math.IsInf(a.Eps, 0) || a.Eps < 0 {
		return fmt.Errorf("data: model eps %g invalid", a.Eps)
	}
	if a.MinPts < 0 || a.Clusters < 0 {
		return fmt.Errorf("data: negative model counts")
	}
	if len(a.Entries) > maxModelEntries {
		return fmt.Errorf("data: %d model entries exceed the format cap", len(a.Entries))
	}
	if a.Kind == ModelKindOneClass && len(a.Entries) != 1 {
		return fmt.Errorf("data: one-class artifact must hold exactly one entry, has %d", len(a.Entries))
	}
	for i := range a.Entries {
		e := &a.Entries[i]
		if a.Kind == ModelKindClustering && (e.Cluster < 0 || int(e.Cluster) >= a.Clusters) {
			return fmt.Errorf("data: entry %d cluster id %d outside [0,%d)", i, e.Cluster, a.Clusters)
		}
		if e.Snap == nil {
			if !e.Degraded {
				return fmt.Errorf("data: entry %d has no snapshot and is not degraded", i)
			}
			continue
		}
		if e.Snap.Dim != a.Dim {
			return fmt.Errorf("data: entry %d snapshot dim %d != artifact dim %d", i, e.Snap.Dim, a.Dim)
		}
		if err := snapshotWritable(e.Snap); err != nil {
			return fmt.Errorf("data: entry %d: %w", i, err)
		}
	}
	return nil
}

// snapshotWritable checks the structural and finiteness invariants the
// reader enforces.
func snapshotWritable(s *svdd.Snapshot) error {
	k := len(s.IDs)
	if k == 0 || int64(k) > maxModelValues/int64(max(1, s.Dim)) {
		return fmt.Errorf("snapshot with %d support vectors out of range", k)
	}
	if len(s.Alpha) != k || len(s.Score) != k || len(s.Coords) != k*s.Dim {
		return fmt.Errorf("snapshot slice lengths inconsistent")
	}
	if !(s.Sigma > 0) || math.IsInf(s.Sigma, 0) {
		return fmt.Errorf("snapshot sigma %g invalid", s.Sigma)
	}
	if s.Iterations < 0 {
		return fmt.Errorf("snapshot iteration count negative")
	}
	for _, v := range [...]float64{s.Nu, s.R2, s.AlphaDot} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("snapshot scalar %g not finite", v)
		}
	}
	if !floatsFinite(s.Alpha) || !floatsFinite(s.Score) || !floatsFinite(s.Coords) {
		return fmt.Errorf("snapshot carries non-finite values")
	}
	return nil
}

func floatsFinite(vs []float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// modelWriter accumulates little-endian primitives with sticky errors.
type modelWriter struct {
	w   *bufio.Writer
	err error
}

func (mw *modelWriter) bytes(b []byte) {
	if mw.err == nil {
		_, mw.err = mw.w.Write(b)
	}
}

func (mw *modelWriter) u8(v byte) { mw.bytes([]byte{v}) }

func (mw *modelWriter) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	mw.bytes(b[:])
}

func (mw *modelWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	mw.bytes(b[:])
}

func (mw *modelWriter) f64(v float64) { mw.u64(math.Float64bits(v)) }

func (mw *modelWriter) i32s(vs []int32) {
	for _, v := range vs {
		mw.u32(uint32(v))
	}
}

func (mw *modelWriter) f64s(vs []float64) {
	for _, v := range vs {
		mw.f64(v)
	}
}

// WriteModel streams the artifact to w in the versioned binary format. The
// encoding is canonical — field order is fixed and no map iteration is
// involved — so equal artifacts always serialize to equal bytes.
func WriteModel(w io.Writer, a *ModelArtifact) error {
	if a == nil {
		return fmt.Errorf("data: nil model artifact")
	}
	if err := a.validate(); err != nil {
		return err
	}
	mw := &modelWriter{w: bufio.NewWriterSize(w, 1<<16)}
	mw.bytes([]byte(modelMagic))
	mw.u32(modelVersion)
	mw.u8(a.Kind)
	mw.u8(a.Precision)
	mw.f64(a.Eps)
	mw.u32(uint32(a.MinPts))
	mw.u32(uint32(a.Dim))
	mw.u32(uint32(a.Clusters))
	mw.u32(uint32(len(a.Entries)))
	for i := range a.Entries {
		e := &a.Entries[i]
		mw.u32(uint32(e.Cluster))
		var flags byte
		if e.Degraded {
			flags |= modelFlagDegraded
		}
		if e.Snap != nil {
			flags |= modelFlagSnapshot
		}
		mw.u8(flags)
		if s := e.Snap; s != nil {
			mw.u32(uint32(s.Dim))
			mw.u32(uint32(len(s.IDs)))
			mw.f64(s.Nu)
			mw.f64(s.Sigma)
			mw.f64(s.R2)
			mw.f64(s.AlphaDot)
			mw.u64(uint64(s.Iterations))
			if s.Converged {
				mw.u8(1)
			} else {
				mw.u8(0)
			}
			mw.i32s(s.IDs)
			mw.f64s(s.Alpha)
			mw.f64s(s.Score)
			mw.f64s(s.Coords)
		}
	}
	if mw.err != nil {
		return mw.err
	}
	return mw.w.Flush()
}

// modelReader consumes little-endian primitives with sticky errors; every
// short read is classified as ErrMalformed (a model file is self-delimiting,
// so EOF mid-structure is always truncation, not end of input).
type modelReader struct {
	r   *bufio.Reader
	err error
}

func (mr *modelReader) fail(format string, args ...any) {
	if mr.err == nil {
		mr.err = fmt.Errorf("%w: "+format, append([]any{ErrMalformed}, args...)...)
	}
}

func (mr *modelReader) bytes(b []byte) {
	if mr.err != nil {
		return
	}
	if _, err := io.ReadFull(mr.r, b); err != nil {
		mr.err = fmt.Errorf("%w: truncated model: %w", ErrMalformed, err)
	}
}

func (mr *modelReader) u8() byte {
	var b [1]byte
	mr.bytes(b[:])
	return b[0]
}

func (mr *modelReader) u32() uint32 {
	var b [4]byte
	mr.bytes(b[:])
	return binary.LittleEndian.Uint32(b[:])
}

func (mr *modelReader) u64() uint64 {
	var b [8]byte
	mr.bytes(b[:])
	return binary.LittleEndian.Uint64(b[:])
}

func (mr *modelReader) f64() float64 { return math.Float64frombits(mr.u64()) }

func (mr *modelReader) finite(name string) float64 {
	v := mr.f64()
	if mr.err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		mr.fail("%s %g not finite", name, v)
	}
	return v
}

// readChunk caps the capacity a count-driven read allocates up front. The
// count caps still let a few header bytes claim gigabytes of payload, so the
// slices grow with the values actually read, not with the claim.
const readChunk = 1 << 16

func (mr *modelReader) i32s(n int) []int32 {
	if mr.err != nil {
		return nil
	}
	out := make([]int32, 0, min(n, readChunk))
	for i := 0; i < n; i++ {
		v := int32(mr.u32())
		if mr.err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

func (mr *modelReader) f64s(n int, name string) []float64 {
	if mr.err != nil {
		return nil
	}
	out := make([]float64, 0, min(n, readChunk))
	for i := 0; i < n; i++ {
		v := mr.f64()
		if mr.err != nil {
			return nil
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			mr.fail("%s[%d] not finite", name, i)
			return nil
		}
		out = append(out, v)
	}
	return out
}

// ReadModel parses a model artifact written by WriteModel. Malformed input —
// bad magic, unsupported version, implausible counts, truncated sections
// (including a stream that ends inside the header, or an empty stream),
// non-finite values, inconsistent dimensions — is rejected with an error
// wrapping ErrMalformed; genuine I/O failures of the underlying reader pass
// through unwrapped. A short read is never surfaced as a raw io.EOF /
// io.ErrUnexpectedEOF: a model file is self-delimiting, so running out of
// bytes anywhere is truncation, not end of input.
func ReadModel(r io.Reader) (*ModelArtifact, error) {
	mr := &modelReader{r: bufio.NewReaderSize(r, 1<<16)}
	var magic [4]byte
	if _, err := io.ReadFull(mr.r, magic[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: truncated model header: %w", ErrMalformed, err)
		}
		return nil, fmt.Errorf("data: reading model header: %w", err)
	}
	if string(magic[:]) != modelMagic {
		return nil, fmt.Errorf("%w: bad model magic %q", ErrMalformed, magic[:])
	}
	version := mr.u32()
	if mr.err == nil && version != modelVersion && version != modelVersionV1 {
		return nil, fmt.Errorf("%w: unsupported model version %d (supported: %d, %d)", ErrMalformed, version, modelVersionV1, modelVersion)
	}
	a := &ModelArtifact{}
	a.Kind = mr.u8()
	if version >= modelVersion {
		a.Precision = mr.u8()
	}
	a.Eps = mr.finite("eps")
	a.MinPts = int(mr.u32())
	a.Dim = int(mr.u32())
	a.Clusters = int(mr.u32())
	entries := mr.u32()
	if mr.err != nil {
		return nil, mr.err
	}
	if a.Kind != ModelKindClustering && a.Kind != ModelKindOneClass {
		return nil, fmt.Errorf("%w: unknown model kind %d", ErrMalformed, a.Kind)
	}
	if a.Precision > ModelPrecisionF32 {
		return nil, fmt.Errorf("%w: unknown model precision %d", ErrMalformed, a.Precision)
	}
	if a.Eps < 0 {
		return nil, fmt.Errorf("%w: negative eps %g", ErrMalformed, a.Eps)
	}
	if a.Dim <= 0 || a.Dim > maxModelDim {
		return nil, fmt.Errorf("%w: implausible model dimensionality %d", ErrMalformed, a.Dim)
	}
	if entries > maxModelEntries {
		return nil, fmt.Errorf("%w: implausible entry count %d", ErrMalformed, entries)
	}
	if a.Kind == ModelKindOneClass && entries != 1 {
		return nil, fmt.Errorf("%w: one-class artifact with %d entries", ErrMalformed, entries)
	}
	a.Entries = make([]ModelEntry, 0, entries)
	for i := 0; i < int(entries); i++ {
		cid := int32(mr.u32())
		flags := mr.u8()
		if mr.err != nil {
			return nil, mr.err
		}
		if flags&^(modelFlagDegraded|modelFlagSnapshot) != 0 {
			return nil, fmt.Errorf("%w: entry %d has unknown flags %#x", ErrMalformed, i, flags)
		}
		e := ModelEntry{Cluster: cid, Degraded: flags&modelFlagDegraded != 0}
		if a.Kind == ModelKindClustering && (cid < 0 || int(cid) >= a.Clusters) {
			return nil, fmt.Errorf("%w: entry %d cluster id %d outside [0,%d)", ErrMalformed, i, cid, a.Clusters)
		}
		if flags&modelFlagSnapshot != 0 {
			snap, err := mr.readSnapshot(a.Dim)
			if err != nil {
				return nil, err
			}
			e.Snap = snap
		} else if !e.Degraded {
			return nil, fmt.Errorf("%w: entry %d has no snapshot and is not degraded", ErrMalformed, i)
		}
		a.Entries = append(a.Entries, e)
	}
	// A model file holds exactly one artifact; trailing bytes mean the
	// stream is not what it claims to be.
	if _, err := mr.r.ReadByte(); err != io.EOF {
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: trailing bytes after model artifact", ErrMalformed)
	}
	return a, nil
}

// readSnapshot parses one snapshot section, bounding every count before the
// corresponding allocation.
func (mr *modelReader) readSnapshot(wantDim int) (*svdd.Snapshot, error) {
	dim := int(mr.u32())
	k := int(mr.u32())
	if mr.err != nil {
		return nil, mr.err
	}
	if dim != wantDim {
		return nil, fmt.Errorf("%w: snapshot dim %d != artifact dim %d", ErrMalformed, dim, wantDim)
	}
	// Reject oversized counts before computing k*dim: the product can wrap
	// for hostile pairs and sneak past a cap checked only on the product
	// (the same guard binio applies to n×d).
	if k <= 0 || int64(k) > maxModelValues/int64(dim) {
		return nil, fmt.Errorf("%w: implausible support-vector count %d (dim %d)", ErrMalformed, k, dim)
	}
	s := &svdd.Snapshot{Dim: dim}
	s.Nu = mr.finite("nu")
	s.Sigma = mr.f64()
	s.R2 = mr.finite("r2")
	s.AlphaDot = mr.finite("alphaDot")
	iters := mr.u64()
	conv := mr.u8()
	if mr.err != nil {
		return nil, mr.err
	}
	if !(s.Sigma > 0) || math.IsInf(s.Sigma, 0) {
		return nil, fmt.Errorf("%w: snapshot sigma %g invalid", ErrMalformed, s.Sigma)
	}
	if iters > math.MaxInt32 {
		return nil, fmt.Errorf("%w: implausible iteration count %d", ErrMalformed, iters)
	}
	if conv > 1 {
		return nil, fmt.Errorf("%w: invalid converged byte %d", ErrMalformed, conv)
	}
	s.Iterations = int(iters)
	s.Converged = conv == 1
	s.IDs = mr.i32s(k)
	s.Alpha = mr.f64s(k, "alpha")
	s.Score = mr.f64s(k, "score")
	s.Coords = mr.f64s(k*dim, "coords")
	if mr.err != nil {
		return nil, mr.err
	}
	return s, nil
}
