package main

import (
	"bytes"
	"testing"

	"dbsvec/internal/data"
	"dbsvec/internal/vec"
)

func TestGenerateKinds(t *testing.T) {
	cases := []struct {
		kind    string
		n, d, k int
		name    string
		wantN   int
		wantD   int
	}{
		{"spreader", 500, 4, 0, "", 500, 4},
		{"blobs", 300, 3, 4, "", 300, 3},
		{"embeddings", 250, 32, 4, "", 250, 32},
		{"t4.8k", 0, 0, 0, "", 8000, 2},
		{"t7.10k", 0, 0, 0, "", 10000, 2},
		{"d31", 0, 0, 0, "", 3100, 2},
		{"dim32", 0, 0, 0, "", 1024, 32},
		{"dim64", 0, 0, 0, "", 1024, 64},
		{"roadmap", 400, 0, 5, "", 400, 2},
		{"uniform", 200, 6, 0, "", 200, 6},
		{"ring", 150, 2, 0, "", 150, 2},
		{"suite", 0, 0, 0, "Seeds", 210, 7},
	}
	for _, c := range cases {
		ds, err := generate(c.kind, c.n, c.d, c.k, 0.35, c.name, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.kind, err)
		}
		if ds.Len() != c.wantN || ds.Dim() != c.wantD {
			t.Errorf("%s: got %dx%d, want %dx%d", c.kind, ds.Len(), ds.Dim(), c.wantN, c.wantD)
		}
		if err := ds.Validate(); err != nil {
			t.Errorf("%s: %v", c.kind, err)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := generate("bogus", 10, 2, 2, 0, "", 1); err == nil {
		t.Error("unknown kind should error")
	}
	if _, err := generate("suite", 0, 0, 0, 0, "nope", 1); err == nil {
		t.Error("unknown suite name should error")
	}
}

// TestStreamMatchesInMemory pins -stream's chunked binary output
// byte-identical to WriteBinary over the materialized dataset, for both
// streamable kinds and both precisions.
func TestStreamMatchesInMemory(t *testing.T) {
	for _, kind := range []string{"spreader", "uniform"} {
		for _, prec := range []vec.Precision{vec.F64, vec.F32} {
			ds, err := generate(kind, 700, 3, 0, 0, "", 9)
			if err != nil {
				t.Fatal(err)
			}
			if ds, err = ds.ToPrecision(prec); err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := data.WriteBinary(&want, ds); err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := streamOut(&got, kind, "bin", 700, 3, 9, prec); err != nil {
				t.Fatalf("%s/%v: %v", kind, prec, err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s/%v: streamed bytes differ from in-memory writer (%d vs %d bytes)",
					kind, prec, got.Len(), want.Len())
			}
			// And the streamed file round-trips through the reader, which
			// loads float32 storage for an f32 file or an f32 process default.
			back, err := data.ReadBinary(bytes.NewReader(got.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			wantPrec := prec
			if vec.DefaultPrecision() == vec.F32 {
				wantPrec = vec.F32
			}
			if back.Len() != 700 || back.Dim() != 3 || back.Precision() != wantPrec {
				t.Fatalf("%s/%v: round trip got %dx%d %v", kind, prec, back.Len(), back.Dim(), back.Precision())
			}
		}
	}
}

// TestStreamErrors covers -stream's validation.
func TestStreamErrors(t *testing.T) {
	var sink bytes.Buffer
	if err := streamOut(&sink, "spreader", "csv", 10, 2, 1, vec.F64); err == nil {
		t.Error("-stream with -format csv should error")
	}
	if err := streamOut(&sink, "blobs", "bin", 10, 2, 1, vec.F64); err == nil {
		t.Error("-stream with a non-streamable kind should error")
	}
	if err := streamOut(&sink, "spreader", "bin", -1, 2, 1, vec.F64); err == nil {
		t.Error("negative n should error")
	}
}
