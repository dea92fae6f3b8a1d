package data

import (
	"bytes"
	"encoding/binary"
	"testing"

	"dbsvec/internal/vec"
)

// TestBinaryF32RoundTrip: a float32-storage dataset writes the half-size v2
// format and reads back in float32 storage with both views intact.
func TestBinaryF32RoundTrip(t *testing.T) {
	ds, err := Blobs(300, 5, 3, 2, 100, 0.05, 9).ToPrecision(vec.F32)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, ds); err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(buf.Bytes()[4:]); v != binVersionF32 {
		t.Fatalf("version = %d, want %d", v, binVersionF32)
	}
	if want := 4 + 20 + 4*300*5; buf.Len() != want {
		t.Fatalf("v2 file is %d bytes, want %d (half-size payload)", buf.Len(), want)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Precision() != vec.F32 {
		t.Fatalf("read precision = %v, want F32", got.Precision())
	}
	gm, dm := got.Matrix().Coords32, ds.Matrix().Coords32
	for i := range dm {
		if gm[i] != dm[i] {
			t.Fatalf("mirror[%d] differs after round trip", i)
		}
		if got.Coords()[i] != ds.Coords()[i] {
			t.Fatalf("master[%d] differs after round trip", i)
		}
	}
}

// TestBinaryV1ByteIdentical pins backward compatibility in the write
// direction: a float64 dataset must still produce the exact v1 bytes files
// written before float32 storage existed.
func TestBinaryV1ByteIdentical(t *testing.T) {
	ds, err := Blobs(50, 3, 2, 2, 100, 0.05, 3).ToPrecision(vec.F64)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, ds); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if string(b[:4]) != binMagic {
		t.Fatalf("magic %q", b[:4])
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != binVersion {
		t.Fatalf("f64 dataset wrote version %d, want %d", v, binVersion)
	}
	if want := 4 + 20 + 8*50*3; len(b) != want {
		t.Fatalf("v1 file is %d bytes, want %d", len(b), want)
	}
}

// TestBinaryPrecisionConversionRoundTrip: writing the F32 conversion and the
// original through their own formats yields datasets whose distances agree
// exactly with in-memory ToPrecision — the codec never adds a rounding step.
func TestBinaryPrecisionConversionRoundTrip(t *testing.T) {
	src := Blobs(120, 4, 2, 2, 100, 0.05, 5)
	ds32, err := src.ToPrecision(vec.F32)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, ds32); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < src.Len(); i++ {
		for j := range back.Point(i) {
			if back.Point(i)[j] != ds32.Point(i)[j] {
				t.Fatalf("point %d coordinate %d drifted through the codec", i, j)
			}
		}
	}
}
