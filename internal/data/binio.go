package data

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"dbsvec/internal/vec"
)

// Binary dataset format: a fixed little-endian header followed by the flat
// coordinate array. Used by the full-scale harness to cache multi-million
// point generated datasets across runs (parsing CSV at 10M×8 floats costs
// more than generating the data).
//
//	offset  size  field
//	0       4     magic "DBSV"
//	4       4     format version (uint32: 1 = float64, 2 = float32)
//	8       8     n (uint64)
//	16      8     d (uint64)
//	24      …     coordinates, row-major: float64 bits (v1) / float32 bits (v2)
//
// The version doubles as the storage precision: float64 datasets write
// version 1 — byte-identical to files produced before float32 storage
// existed — while float32 datasets write version 2 with the mirror's float32
// bits (half the file, no information lost: the master is the mirror's exact
// widening). Readers accept both and return a dataset of the file's
// precision.
const (
	binMagic      = "DBSV"
	binVersion    = 1
	binVersionF32 = 2

	// binHeaderSize is the fixed byte length of the header preceding the
	// coordinate section.
	binHeaderSize = 4 + 4 + 8 + 8
)

// BinHeader describes a binary dataset file without loading its coordinates.
// It is the contract between the out-of-core readers: the header fixes the
// value width and the offset of every point, so arbitrary point ranges can be
// read directly via io.ReaderAt.
type BinHeader struct {
	// Version is the on-disk format version (1 = float64, 2 = float32).
	Version uint32
	// N and D are the point count and dimensionality.
	N, D int
}

// Precision returns the storage precision the file's version encodes.
func (h BinHeader) Precision() vec.Precision {
	if h.Version == binVersionF32 {
		return vec.F32
	}
	return vec.F64
}

// valueWidth returns the byte width of one coordinate value.
func (h BinHeader) valueWidth() int {
	if h.Version == binVersionF32 {
		return 4
	}
	return 8
}

// parseBinHeader validates a raw header block. Shared by the streaming
// ReadBinary path and the io.ReaderAt probe so both enforce identical bounds.
func parseBinHeader(head []byte) (BinHeader, error) {
	if string(head[:4]) != binMagic {
		return BinHeader{}, fmt.Errorf("%w: bad magic %q", ErrMalformed, head[:4])
	}
	version := binary.LittleEndian.Uint32(head[4:])
	if version != binVersion && version != binVersionF32 {
		return BinHeader{}, fmt.Errorf("%w: unsupported binary version %d", ErrMalformed, version)
	}
	n := binary.LittleEndian.Uint64(head[8:])
	d := binary.LittleEndian.Uint64(head[16:])
	if d == 0 || d > 1<<20 {
		return BinHeader{}, fmt.Errorf("%w: implausible dimensionality %d", ErrMalformed, d)
	}
	// Reject oversized headers before computing n*d: the product itself can
	// wrap around uint64 for hostile (n, d) pairs and sneak past a cap
	// checked only on the product.
	const maxValues = (1 << 40) / 8
	if n > maxValues/d {
		return BinHeader{}, fmt.Errorf("%w: dataset too large: %d x %d values", ErrMalformed, n, d)
	}
	return BinHeader{Version: version, N: int(n), D: int(d)}, nil
}

// ReadBinaryHeader probes the fixed-size header of a binary dataset file
// without touching the coordinate section. The returned header drives
// ReadBinaryBlock for random access to point ranges.
func ReadBinaryHeader(r io.ReaderAt) (BinHeader, error) {
	var head [binHeaderSize]byte
	if _, err := r.ReadAt(head[:], 0); err != nil {
		return BinHeader{}, fmt.Errorf("data: reading binary header: %w", err)
	}
	return parseBinHeader(head[:])
}

// ReadBinaryBlock reads the half-open point range [start, start+count) into
// out, widening float32 files to float64 exactly as ReadBinary does (the
// widened values re-quantize bit-identically, so callers needing F32 storage
// convert via vec ToPrecision without loss). out must hold count*D values.
func ReadBinaryBlock(r io.ReaderAt, h BinHeader, start, count int, out []float64) error {
	if start < 0 || count < 0 || start > h.N-count {
		return fmt.Errorf("%w: block [%d,%d) outside %d points", ErrMalformed, start, start+count, h.N)
	}
	if len(out) < count*h.D {
		return fmt.Errorf("data: block buffer holds %d values, need %d", len(out), count*h.D)
	}
	if count == 0 {
		return nil
	}
	width := h.valueWidth()
	raw := make([]byte, count*h.D*width)
	off := binHeaderSize + int64(start)*int64(h.D*width)
	if _, err := r.ReadAt(raw, off); err != nil {
		return fmt.Errorf("%w: truncated coordinates: %w", ErrMalformed, err)
	}
	decodeBinCoords(raw, h.Version, out[:count*h.D])
	return nil
}

// decodeBinCoords decodes little-endian coordinate bytes into out. The slices
// must agree in length (len(raw) == len(out)*width).
func decodeBinCoords(raw []byte, version uint32, out []float64) {
	if version == binVersionF32 {
		for i := range out {
			out[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:])))
		}
		return
	}
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
}

// WriteBinary streams the dataset to w in the binary format. The precision of
// ds selects the format version (see the format comment above).
func WriteBinary(w io.Writer, ds *vec.Dataset) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(binMagic); err != nil {
		return err
	}
	version := uint32(binVersion)
	if ds.Precision() == vec.F32 {
		version = binVersionF32
	}
	var hdr [20]byte
	binary.LittleEndian.PutUint32(hdr[0:], version)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(ds.Len()))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(ds.Dim()))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	if version == binVersionF32 {
		var buf [4]byte
		for _, v := range ds.Matrix().Coords32 {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
			if _, err := bw.Write(buf[:]); err != nil {
				return err
			}
		}
		return bw.Flush()
	}
	var buf [8]byte
	for _, v := range ds.Coords() {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary parses a dataset written by WriteBinary. Version 2 files come
// back in float32 storage; version 1 files take the process default precision
// (quantizing once when DBSVEC_PRECISION=f32), matching what the same data
// would get when loaded from CSV.
func ReadBinary(r io.Reader) (*vec.Dataset, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	head := make([]byte, binHeaderSize)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("data: reading binary header: %w", err)
	}
	h, err := parseBinHeader(head)
	if err != nil {
		return nil, err
	}
	coords := make([]float64, h.N*h.D)
	width := h.valueWidth()
	raw := make([]byte, width*4096)
	idx := 0
	for idx < len(coords) {
		want := (len(coords) - idx) * width
		if want > len(raw) {
			want = len(raw)
		}
		if _, err := io.ReadFull(br, raw[:want]); err != nil {
			return nil, fmt.Errorf("%w: truncated coordinates: %w", ErrMalformed, err)
		}
		decodeBinCoords(raw[:want], h.Version, coords[idx:idx+want/width])
		idx += want / width
	}
	ds, err := vec.NewDataset(coords, h.D)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrMalformed, err)
	}
	if err := ds.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrMalformed, err)
	}
	if h.Version == binVersionF32 {
		// Widened float32 values re-quantize exactly; this only rebuilds the
		// mirror (no-op when the process default already quantized above).
		ds, err = ds.ToPrecision(vec.F32)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrMalformed, err)
		}
	}
	return ds, nil
}

// BinaryWriter streams a dataset to the binary format one point (or chunk of
// points) at a time, so datasets larger than RAM can be produced without ever
// materializing them. The header is written up front from the declared count;
// Close fails if the number of points written disagrees, leaving no silently
// short file. The byte stream is identical to WriteBinary on a materialized
// dataset of the same precision: float32 mode quantizes each value with the
// same single float32(v) rounding step vec ToPrecision applies.
type BinaryWriter struct {
	bw      *bufio.Writer
	prec    vec.Precision
	d       int
	n       int
	written int
	err     error
}

// NewBinaryWriter writes the format header for n points of dimension d in the
// given precision and returns a writer ready to append points.
func NewBinaryWriter(w io.Writer, n, d int, prec vec.Precision) (*BinaryWriter, error) {
	if n < 0 || d <= 0 || d > 1<<20 {
		return nil, fmt.Errorf("data: binary writer: implausible shape %d x %d", n, d)
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(binMagic); err != nil {
		return nil, err
	}
	version := uint32(binVersion)
	if prec == vec.F32 {
		version = binVersionF32
	}
	var hdr [binHeaderSize - 4]byte
	binary.LittleEndian.PutUint32(hdr[0:], version)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(n))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(d))
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &BinaryWriter{bw: bw, prec: prec, d: d, n: n}, nil
}

// WritePoints appends len(coords)/d points from a flat row-major chunk.
func (w *BinaryWriter) WritePoints(coords []float64) error {
	if w.err != nil {
		return w.err
	}
	if len(coords)%w.d != 0 {
		w.err = fmt.Errorf("data: binary writer: %d values is not a multiple of dimension %d", len(coords), w.d)
		return w.err
	}
	pts := len(coords) / w.d
	if w.written+pts > w.n {
		w.err = fmt.Errorf("data: binary writer: %d points exceeds declared %d", w.written+pts, w.n)
		return w.err
	}
	if w.prec == vec.F32 {
		var buf [4]byte
		for _, v := range coords {
			f := float32(v)
			if math.IsInf(float64(f), 0) && !math.IsInf(v, 0) {
				w.err = fmt.Errorf("data: binary writer: %g overflows float32", v)
				return w.err
			}
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(f))
			if _, err := w.bw.Write(buf[:]); err != nil {
				w.err = err
				return err
			}
		}
	} else {
		var buf [8]byte
		for _, v := range coords {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			if _, err := w.bw.Write(buf[:]); err != nil {
				w.err = err
				return err
			}
		}
	}
	w.written += pts
	return nil
}

// Close flushes buffered bytes and verifies the declared point count was
// delivered in full.
func (w *BinaryWriter) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.written != w.n {
		w.err = fmt.Errorf("data: binary writer: wrote %d of %d declared points", w.written, w.n)
		return w.err
	}
	w.err = w.bw.Flush()
	return w.err
}
