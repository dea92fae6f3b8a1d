package data

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"

	"dbsvec/internal/svdd"
	"dbsvec/internal/vec"
)

// testSnapshot trains a small SVDD model and snapshots it.
func testSnapshot(t *testing.T, n, d int, seed int64) *svdd.Snapshot {
	t.Helper()
	ds := Blobs(n, d, 2, 15, 300, 0.02, seed)
	m, err := svdd.Train(ds, vec.Iota(ds.Len()), svdd.Config{Nu: 0.1})
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	return m.Snapshot()
}

func testArtifact(t *testing.T) *ModelArtifact {
	t.Helper()
	return &ModelArtifact{
		Kind:      ModelKindClustering,
		Precision: ModelPrecisionF32,
		Eps:       4.5,
		MinPts:    8,
		Dim:       3,
		Clusters:  2,
		Entries: []ModelEntry{
			{Cluster: 0, Snap: testSnapshot(t, 120, 3, 1)},
			{Cluster: 1, Snap: testSnapshot(t, 90, 3, 2)},
			{Cluster: 1, Degraded: true, Snap: testSnapshot(t, 60, 3, 3)},
			{Cluster: 0, Degraded: true}, // degraded without a usable model
		},
	}
}

// TestModelRoundTrip: write → read reproduces every field bit-exactly, and
// re-writing the read artifact produces byte-identical output (the canonical
// encoding the save→load→save acceptance criterion pins).
func TestModelRoundTrip(t *testing.T) {
	a := testArtifact(t)
	var buf bytes.Buffer
	if err := WriteModel(&buf, a); err != nil {
		t.Fatalf("write: %v", err)
	}
	first := append([]byte(nil), buf.Bytes()...)

	got, err := ReadModel(bytes.NewReader(first))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.Kind != a.Kind || got.Precision != a.Precision || got.Eps != a.Eps ||
		got.MinPts != a.MinPts || got.Dim != a.Dim || got.Clusters != a.Clusters ||
		len(got.Entries) != len(a.Entries) {
		t.Fatalf("header drifted: %+v", got)
	}
	for i := range a.Entries {
		w, r := &a.Entries[i], &got.Entries[i]
		if w.Cluster != r.Cluster || w.Degraded != r.Degraded || (w.Snap == nil) != (r.Snap == nil) {
			t.Fatalf("entry %d meta drifted", i)
		}
		if w.Snap == nil {
			continue
		}
		ws, rs := w.Snap, r.Snap
		if ws.Dim != rs.Dim || ws.Nu != rs.Nu || ws.Sigma != rs.Sigma || ws.R2 != rs.R2 ||
			ws.AlphaDot != rs.AlphaDot || ws.Iterations != rs.Iterations || ws.Converged != rs.Converged {
			t.Fatalf("entry %d snapshot scalars drifted", i)
		}
		for j := range ws.IDs {
			if ws.IDs[j] != rs.IDs[j] || ws.Alpha[j] != rs.Alpha[j] || ws.Score[j] != rs.Score[j] {
				t.Fatalf("entry %d sv %d drifted", i, j)
			}
		}
		for j := range ws.Coords {
			if ws.Coords[j] != rs.Coords[j] {
				t.Fatalf("entry %d coord %d drifted (want bit-exact float64 round trip)", i, j)
			}
		}
	}

	var buf2 bytes.Buffer
	if err := WriteModel(&buf2, got); err != nil {
		t.Fatalf("re-write: %v", err)
	}
	if !bytes.Equal(first, buf2.Bytes()) {
		t.Fatal("save → load → save is not byte-identical")
	}
}

// TestModelOneClassRoundTrip covers the shared-format one-class container.
func TestModelOneClassRoundTrip(t *testing.T) {
	a := &ModelArtifact{
		Kind:    ModelKindOneClass,
		Dim:     3,
		Entries: []ModelEntry{{Snap: testSnapshot(t, 100, 3, 9)}},
	}
	var buf bytes.Buffer
	if err := WriteModel(&buf, a); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadModel(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.Kind != ModelKindOneClass || len(got.Entries) != 1 || got.Entries[0].Snap == nil {
		t.Fatalf("one-class artifact drifted: %+v", got)
	}
}

// TestReadModelMalformed exercises the rejection taxonomy: every corruption
// is wrapped in ErrMalformed and none panics.
func TestReadModelMalformed(t *testing.T) {
	a := testArtifact(t)
	var buf bytes.Buffer
	if err := WriteModel(&buf, a); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	mutate := func(f func(b []byte) []byte) []byte {
		cp := append([]byte(nil), valid...)
		return f(cp)
	}
	cases := []struct {
		name string
		in   []byte
	}{
		{"empty", nil},
		{"short magic", valid[:2]},
		{"bad magic", mutate(func(b []byte) []byte { b[0] = 'X'; return b })},
		{"future version", mutate(func(b []byte) []byte { b[4] = 99; return b })},
		{"bad kind", mutate(func(b []byte) []byte { b[8] = 7; return b })},
		{"bad precision", mutate(func(b []byte) []byte { b[9] = 7; return b })},
		{"nan eps", mutate(func(b []byte) []byte {
			putF64(b[10:], math.NaN())
			return b
		})},
		{"huge dim", mutate(func(b []byte) []byte {
			putU32(b[22:], 1<<30)
			return b
		})},
		{"zero dim", mutate(func(b []byte) []byte {
			putU32(b[22:], 0)
			return b
		})},
		{"huge entry count", mutate(func(b []byte) []byte {
			putU32(b[30:], 1<<30)
			return b
		})},
		{"truncated mid-entry", valid[:40]},
		{"truncated mid-coords", valid[:len(valid)-9]},
		{"trailing bytes", mutate(func(b []byte) []byte { return append(b, 0) })},
	}
	for _, tc := range cases {
		_, err := ReadModel(bytes.NewReader(tc.in))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !errors.Is(err, ErrMalformed) && tc.name != "empty" && tc.name != "short magic" {
			t.Errorf("%s: error %v does not wrap ErrMalformed", tc.name, err)
		}
	}
}

// TestReadModelV1Compat pins backward compatibility: a version-1 file — the
// layout without the precision byte — still loads, with Precision mapped to
// float64 storage. The fixture is hand-built because the current writer only
// emits version 2.
func TestReadModelV1Compat(t *testing.T) {
	a := testArtifact(t)
	var buf bytes.Buffer
	if err := WriteModel(&buf, a); err != nil {
		t.Fatal(err)
	}
	v2 := buf.Bytes()
	// Downgrade: version 1 and the precision byte (offset 9) removed.
	v1 := append([]byte(nil), v2[:9]...)
	v1 = append(v1, v2[10:]...)
	putU32(v1[4:], modelVersionV1)

	got, err := ReadModel(bytes.NewReader(v1))
	if err != nil {
		t.Fatalf("read v1: %v", err)
	}
	if got.Precision != ModelPrecisionF64 {
		t.Fatalf("v1 precision = %d, want ModelPrecisionF64", got.Precision)
	}
	if got.Kind != a.Kind || got.Eps != a.Eps || got.MinPts != a.MinPts ||
		got.Dim != a.Dim || got.Clusters != a.Clusters || len(got.Entries) != len(a.Entries) {
		t.Fatalf("v1 header drifted: %+v", got)
	}
	for i := range a.Entries {
		w, r := &a.Entries[i], &got.Entries[i]
		if w.Cluster != r.Cluster || w.Degraded != r.Degraded || (w.Snap == nil) != (r.Snap == nil) {
			t.Fatalf("v1 entry %d meta drifted", i)
		}
		if w.Snap != nil && (w.Snap.R2 != r.Snap.R2 || !bytes.Equal(int32Bytes(w.Snap.IDs), int32Bytes(r.Snap.IDs))) {
			t.Fatalf("v1 entry %d snapshot drifted", i)
		}
	}
}

func int32Bytes(vs []int32) []byte {
	out := make([]byte, 0, len(vs)*4)
	for _, v := range vs {
		out = append(out, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return out
}

// TestReadModelSizeOverflow mirrors the binio n×d wrap-around guard: a
// support-vector count and dimension whose product wraps uint64 must be
// rejected by the per-factor bound, never allocated.
func TestReadModelSizeOverflow(t *testing.T) {
	// Hand-build a header advertising one snapshot entry with k chosen so
	// that k*dim overflows while each factor alone looks plausible.
	var b []byte
	app32 := func(v uint32) { b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24)) }
	app64 := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			b = append(b, byte(v>>s))
		}
	}
	b = append(b, "DBSM"...)
	app32(1)                           // version
	b = append(b, ModelKindClustering) // kind
	app64(math.Float64bits(1))         // eps
	app32(4)                           // minPts
	app32(1 << 19)                     // dim (inside the dim cap)
	app32(1)                           // clusters
	app32(1)                           // entries
	app32(0)                           // entry cluster id
	b = append(b, modelFlagSnapshot)   // flags
	app32(1 << 19)                     // snapshot dim
	app32(1 << 30)                     // k: k*dim*8 would be 2^52 bytes
	_, err := ReadModel(bytes.NewReader(b))
	if err == nil {
		t.Fatal("accepted overflow-sized snapshot header")
	}
	if !errors.Is(err, ErrMalformed) {
		t.Fatalf("overflow error %v does not wrap ErrMalformed", err)
	}
}

// TestReadModelClaimedCountNeedsPayload: a snapshot header may claim up to
// maxModelValues/dim support vectors in four bytes. A stream that then ends
// must be rejected as truncated without first allocating for the claim.
func TestReadModelClaimedCountNeedsPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteModel(&buf, fuzzSeedArtifact()); err != nil {
		t.Fatal(err)
	}
	in := buf.Bytes()
	// Header (34 bytes), entry cluster id and flags (5), snapshot dim (4).
	const kOff = 43
	if k := binary.LittleEndian.Uint32(in[kOff:]); k != 3 {
		t.Fatalf("support-vector count at offset %d = %d, want the seed's 3", kOff, k)
	}
	putU32(in[kOff:], 1<<28) // 1 GiB of int32 ids, 2 GiB of alphas
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadModel(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Errorf("rejecting a %d-byte stream allocated %d bytes", len(in), grew)
	}
}

// TestWriteModelRejectsInvalid: the writer enforces the same invariants as
// the reader, so no unreadable file can be produced.
func TestWriteModelRejectsInvalid(t *testing.T) {
	snap := testSnapshot(t, 80, 3, 4)
	cases := []struct {
		name string
		a    *ModelArtifact
	}{
		{"nil", nil},
		{"bad kind", &ModelArtifact{Kind: 9, Dim: 3}},
		{"zero dim", &ModelArtifact{Kind: ModelKindClustering, Dim: 0}},
		{"negative eps", &ModelArtifact{Kind: ModelKindClustering, Dim: 3, Eps: -1}},
		{"cluster out of range", &ModelArtifact{
			Kind: ModelKindClustering, Dim: 3, Clusters: 1,
			Entries: []ModelEntry{{Cluster: 5, Snap: snap}},
		}},
		{"dim mismatch", &ModelArtifact{
			Kind: ModelKindClustering, Dim: 2, Clusters: 1,
			Entries: []ModelEntry{{Cluster: 0, Snap: snap}},
		}},
		{"non-degraded without snapshot", &ModelArtifact{
			Kind: ModelKindClustering, Dim: 3, Clusters: 1,
			Entries: []ModelEntry{{Cluster: 0}},
		}},
		{"one-class multi entry", &ModelArtifact{
			Kind: ModelKindOneClass, Dim: 3,
			Entries: []ModelEntry{{Snap: snap}, {Snap: snap}},
		}},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		if err := WriteModel(&buf, tc.a); err == nil {
			t.Errorf("%s: writer accepted invalid artifact", tc.name)
		}
	}
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func putF64(b []byte, v float64) {
	u := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		b[i] = byte(u >> (8 * i))
	}
}
