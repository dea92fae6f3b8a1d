package core

import "testing"

// TestRunRetainedMatchesRun: retention must not perturb the clustering —
// RunRetained's labels are bit-identical to Run's for the same options.
func TestRunRetainedMatchesRun(t *testing.T) {
	ds := detBlobs(900, 2, 7)
	opts := Options{Eps: 6, MinPts: 8, Seed: 3, Workers: 1}
	plain, _, err := Run(ds, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	res, retained, st, err := RunRetained(ds, opts)
	if err != nil {
		t.Fatalf("RunRetained: %v", err)
	}
	if len(plain.Labels) != len(res.Labels) {
		t.Fatal("label length drifted")
	}
	for i := range plain.Labels {
		if plain.Labels[i] != res.Labels[i] {
			t.Fatalf("label %d drifted: %d != %d", i, plain.Labels[i], res.Labels[i])
		}
	}
	if len(retained) == 0 {
		t.Fatal("no models retained")
	}
	if st.RetainedModels != len(retained) {
		t.Fatalf("Stats.RetainedModels %d != len(retained) %d", st.RetainedModels, len(retained))
	}
}

// TestRunRetainedClusterIDs: every retained entry references a valid final
// cluster id, every non-degraded entry carries a snapshot whose dimension
// matches the dataset, and every final cluster that trained SVDD at least
// once is covered by some entry.
func TestRunRetainedClusterIDs(t *testing.T) {
	ds := detBlobs(2000, 2, 13)
	res, retained, st, err := RunRetained(ds, Options{Eps: 6, MinPts: 8, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.SVDDTrainings == 0 {
		t.Fatal("run trained no SVDD models; test shape is wrong")
	}
	covered := make(map[int32]bool)
	for i, e := range retained {
		if e.Cluster < 0 || int(e.Cluster) >= res.Clusters {
			t.Fatalf("entry %d: cluster id %d outside [0,%d)", i, e.Cluster, res.Clusters)
		}
		if e.Snap == nil {
			if !e.Degraded {
				t.Fatalf("entry %d: non-degraded entry without snapshot", i)
			}
			continue
		}
		if e.Snap.Dim != ds.Dim() {
			t.Fatalf("entry %d: snapshot dim %d != dataset dim %d", i, e.Snap.Dim, ds.Dim())
		}
		if e.Snap.SVCount() == 0 {
			t.Fatalf("entry %d: retained snapshot with zero support vectors", i)
		}
		covered[e.Cluster] = true
	}
	if len(covered) == 0 {
		t.Fatal("no cluster covered by a retained snapshot")
	}
	// Degradation accounting: the number of degraded entries equals
	// Stats.Degraded.
	deg := 0
	for _, e := range retained {
		if e.Degraded {
			deg++
		}
	}
	if deg != st.Degraded {
		t.Fatalf("degraded entries %d != Stats.Degraded %d", deg, st.Degraded)
	}
}
