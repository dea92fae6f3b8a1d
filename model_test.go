package dbsvec

import (
	"bytes"
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"dbsvec/internal/data"
	"dbsvec/internal/dist"
	"dbsvec/internal/leakcheck"
)

func blobDataset(t *testing.T, n, d, k int, seed int64) *Dataset {
	t.Helper()
	raw := data.Blobs(n, d, k, 2, 100, 0.05, seed)
	ds, err := FromFlat(append([]float64(nil), raw.Coords()...), d)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestModelSaveLoadAssign is the headline acceptance path: a model trained
// by Cluster is saved, loaded as if in a fresh process, and Assign labels
// the original training points consistently with Result.Labels (non-noise
// agreement >= 0.99); save → load → save is byte-identical.
func TestModelSaveLoadAssign(t *testing.T) {
	for _, spec := range []struct {
		n, d, k int
		seed    int64
	}{
		{1500, 2, 4, 3},
		{1000, 3, 3, 4},
		{800, 5, 2, 5},
	} {
		ds := blobDataset(t, spec.n, spec.d, spec.k, spec.seed)
		res, err := Cluster(ds, Options{Eps: 3, MinPts: 8, Seed: 3})
		if err != nil {
			t.Fatalf("d=%d: %v", spec.d, err)
		}
		m := res.Model()
		if m == nil {
			t.Fatalf("d=%d: Cluster retained no model", spec.d)
		}
		if m.Clusters() != res.Clusters || m.Dim() != spec.d || m.Eps() != 3 || m.MinPts() != 8 {
			t.Fatalf("d=%d: model parameters drifted: %d clusters dim %d eps %g minPts %d",
				spec.d, m.Clusters(), m.Dim(), m.Eps(), m.MinPts())
		}
		if res.Stats.RetainedModels == 0 || m.Snapshots() == 0 {
			t.Fatalf("d=%d: no snapshots retained", spec.d)
		}

		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("d=%d save: %v", spec.d, err)
		}
		first := append([]byte(nil), buf.Bytes()...)
		loaded, err := LoadModel(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("d=%d load: %v", spec.d, err)
		}
		var buf2 bytes.Buffer
		if err := loaded.Save(&buf2); err != nil {
			t.Fatalf("d=%d re-save: %v", spec.d, err)
		}
		if !bytes.Equal(first, buf2.Bytes()) {
			t.Fatalf("d=%d: save → load → save is not byte-identical", spec.d)
		}

		labels, err := loaded.Assign(ds, 1)
		if err != nil {
			t.Fatalf("d=%d assign: %v", spec.d, err)
		}
		agree, total := 0, 0
		for i, want := range res.Labels {
			if want == Noise {
				continue
			}
			total++
			if labels[i] == want {
				agree++
			}
		}
		if total == 0 {
			t.Fatalf("d=%d: clustering labeled nothing", spec.d)
		}
		if frac := float64(agree) / float64(total); frac < 0.99 {
			t.Errorf("d=%d: Assign agrees with Result.Labels on %.4f of non-noise points, want >= 0.99",
				spec.d, frac)
		}
	}
}

// TestAssignWorkerConformance pins the determinism discipline on the scoring
// path: a 100k-point batch assigned with any worker count produces
// bit-identical labels, because the chunk boundaries are fixed and
// every point's work is independent.
func TestAssignWorkerConformance(t *testing.T) {
	train := blobDataset(t, 4000, 2, 4, 7)
	res, err := Cluster(train, Options{Eps: 3, MinPts: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Model()

	batch := blobDataset(t, 100_000, 2, 4, 8)
	want, err := m.Assign(batch, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 5, 8, 16, 0} {
		got, err := m.Assign(batch, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: label %d differs (%d != %d)", workers, i, got[i], want[i])
			}
		}
	}
}

// TestAssignScoresMatchPerTermExp pins every boundary score of Assign to
// the per-term arithmetic bias − 2Σαᵢ·math.Exp(−d²ᵢ·γ), summed in
// support-vector order, bit for bit: the batched exp must not move a
// single score, so no label can move either.
func TestAssignScoresMatchPerTermExp(t *testing.T) {
	for _, d := range []int{2, 5} {
		res, err := Cluster(blobDataset(t, 3000, d, 4, 11), Options{Eps: 3, MinPts: 8, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		p := res.Model().assignPlan()
		if len(p.entries) == 0 {
			t.Fatalf("d=%d: model retained no boundaries", d)
		}
		batch := blobDataset(t, 500, d, 4, 12)
		scratch := make([]float64, 2*p.svs.Len())
		d2, k := splitScratch(scratch)
		for i := 0; i < batch.Len(); i++ {
			q := batch.ds.Point(i)
			for j := range d2 {
				d2[j] = dist.SqDist(p.svs.Row(j), q)
			}
			for _, e := range p.entries {
				var s float64
				for j := e.lo; j < e.hi; j++ {
					s += p.alpha[j] * math.Exp(-d2[j]*e.gamma)
				}
				want := e.bias - 2*s
				if got := e.score(p.alpha, d2, k); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("d=%d point %d cluster %d: score %v, per-term exp %v", d, i, e.cluster, got, want)
				}
			}
		}
	}
}

// TestModelAssignRejectsMismatchedDim: dimension mismatches fail up front
// instead of producing garbage labels.
func TestModelAssignRejectsMismatchedDim(t *testing.T) {
	ds := blobDataset(t, 600, 2, 2, 9)
	res, err := Cluster(ds, Options{Eps: 3, MinPts: 8})
	if err != nil {
		t.Fatal(err)
	}
	wrong := blobDataset(t, 10, 3, 1, 9)
	if _, err := res.Model().Assign(wrong, 1); !errors.Is(err, ErrInvalidParams) {
		t.Fatalf("Assign on wrong dimensionality: err = %v, want ErrInvalidParams", err)
	}
	if err := res.Model().CheckAssignable(wrong); !errors.Is(err, ErrInvalidParams) {
		t.Fatalf("CheckAssignable on wrong dimensionality: err = %v, want ErrInvalidParams", err)
	}
	var nilModel *Model
	if err := nilModel.CheckAssignable(ds); !errors.Is(err, ErrInvalidParams) {
		t.Fatalf("CheckAssignable on nil model: err = %v, want ErrInvalidParams", err)
	}
}

// TestLoadModelRejectsKindMismatch: the two loaders reject each other's
// artifacts with ErrMalformed.
func TestLoadModelRejectsKindMismatch(t *testing.T) {
	ds := blobDataset(t, 300, 2, 1, 11)
	oc, err := TrainOneClass(ds, OneClassOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var ocBuf bytes.Buffer
	if err := oc.Save(&ocBuf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(bytes.NewReader(ocBuf.Bytes())); !errors.Is(err, ErrMalformed) {
		t.Fatalf("LoadModel on a one-class artifact: err = %v, want ErrMalformed", err)
	}

	res, err := Cluster(ds, Options{Eps: 3, MinPts: 5})
	if err != nil {
		t.Fatal(err)
	}
	var cBuf bytes.Buffer
	if err := res.Model().Save(&cBuf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadOneClass(bytes.NewReader(cBuf.Bytes())); !errors.Is(err, ErrMalformed) {
		t.Fatalf("LoadOneClass on a clustering artifact: err = %v, want ErrMalformed", err)
	}
}

// pollCancelCtx is a context whose Err() flips to context.Canceled after a
// fixed number of Err() polls. AssignContext only ever consults ctx.Err()
// (never Done()), so this drives mid-fan-out cancellation deterministically:
// the budget is spent strictly inside the worker loops.
type pollCancelCtx struct {
	context.Context
	polls atomic.Int64
}

func (c *pollCancelCtx) Err() error {
	if c.polls.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestAssignContextCancelledMidFanOut: cancellation that lands while the
// assign fan-out is running aborts the batch with ctx's error and leaks no
// goroutines. The poll budget (3) survives AssignContext's two whole-batch
// checks plus the first in-loop poll, so the cancel is observed strictly
// inside the worker loop.
func TestAssignContextCancelledMidFanOut(t *testing.T) {
	leakcheck.Check(t)
	ds := blobDataset(t, 2000, 2, 3, 21)
	res, err := Cluster(ds, Options{Eps: 3, MinPts: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Model()

	ctx := &pollCancelCtx{Context: context.Background()}
	ctx.polls.Store(3)
	if _, err := m.AssignContext(ctx, ds, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-fan-out cancel: err = %v, want context.Canceled", err)
	}

	// A pre-cancelled context never starts the fan-out.
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.AssignContext(done, ds, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}

	// And the model still works afterwards.
	labels, err := m.Assign(ds, 4)
	if err != nil || len(labels) != ds.Len() {
		t.Fatalf("post-cancel Assign: labels %d err %v", len(labels), err)
	}
}

// TestAssignNearestContext: the degraded-path entry point is deterministic
// across worker counts, labels stay in range, and it broadly agrees with
// the full boundary path on training data (the nearest-SV fallback is the
// final tiebreak of the full path, so most points coincide).
func TestAssignNearestContext(t *testing.T) {
	ds := blobDataset(t, 1200, 2, 3, 25)
	res, err := Cluster(ds, Options{Eps: 3, MinPts: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Model()
	ctx := context.Background()

	one, err := m.AssignNearestContext(ctx, ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	four, err := m.AssignNearestContext(ctx, ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range one {
		if one[i] != four[i] {
			t.Fatalf("nearest assignment depends on worker count at %d: %d vs %d", i, one[i], four[i])
		}
		if one[i] != -1 && (one[i] < 0 || int(one[i]) >= m.Clusters()) {
			t.Fatalf("nearest label[%d] = %d outside [-1, %d)", i, one[i], m.Clusters())
		}
	}

	full, err := m.Assign(ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for i := range full {
		if full[i] == one[i] {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(full)); frac < 0.8 {
		t.Fatalf("nearest path agrees with the full path on only %.2f of points", frac)
	}
}
