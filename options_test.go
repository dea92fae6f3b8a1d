package dbsvec

import (
	"context"
	"reflect"
	"slices"
	"testing"
	"time"

	"dbsvec/internal/index/kdtree"
)

// TestOptionsReachTheRun sets every public Options field to a non-zero value
// and checks that each one reaches the run: the core fields through
// coreOptions, the shard fields through shardOptions, and Index as a builder
// of the backend it names. A field added to Options without a line here
// fails the test, so a hand copy cannot drop one unnoticed.
func TestOptionsReachTheRun(t *testing.T) {
	opts := Options{
		Eps:              2.5,
		MinPts:           7,
		Nu:               0.3,
		NuMin:            true,
		Seed:             99,
		Index:            IndexKDTree,
		Workers:          3,
		Budget:           Budget{MaxDuration: time.Minute, MaxSVDDRounds: 11, MaxRangeQueries: 13},
		Shards:           4,
		ShardConcurrency: 2,
	}
	// Seed is ignored: nothing draws random numbers (see TestSeedChangesNothing).
	checked := []string{"Eps", "MinPts", "Nu", "NuMin", "Seed", "Index", "Workers", "Budget", "Shards", "ShardConcurrency"}
	v := reflect.ValueOf(opts)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if v.Field(i).IsZero() {
			t.Errorf("field %s is zero in the test options", name)
		}
		if !slices.Contains(checked, name) {
			t.Errorf("field %s is not checked", name)
		}
	}

	so, err := opts.shardOptions()
	if err != nil {
		t.Fatal(err)
	}
	co := so.Core
	if co.Eps != opts.Eps || co.MinPts != opts.MinPts || co.Nu != opts.Nu || co.NuMin != opts.NuMin ||
		co.Workers != opts.Workers || co.Budget != opts.Budget {
		t.Errorf("core options %+v do not carry %+v", co, opts)
	}
	if co.Seed != 0 {
		t.Errorf("core Seed = %d, want 0: the public Seed is ignored", co.Seed)
	}
	if so.Shards != opts.Shards || so.Concurrency != opts.ShardConcurrency || !so.Retain {
		t.Errorf("shard options Shards %d Concurrency %d Retain %v, want %d %d true",
			so.Shards, so.Concurrency, so.Retain, opts.Shards, opts.ShardConcurrency)
	}
	if co.IndexBuilderCtx == nil {
		t.Fatal("Index yields no builder")
	}
	ds := blobDataset(t, 100, 2, 2, 41)
	idx, err := co.IndexBuilderCtx(context.Background(), ds.ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := idx.(*kdtree.Tree); !ok {
		t.Errorf("IndexKDTree built a %T", idx)
	}
}

// TestSeedChangesNothing pins the deprecation note on Options.Seed: two runs
// that differ only in Seed give the same labels and the same work counters.
func TestSeedChangesNothing(t *testing.T) {
	ds := blobDataset(t, 1500, 3, 3, 43)
	var runs [2]*Result
	for i, seed := range []int64{1, 99} {
		res, err := Cluster(ds, Options{Eps: 3, MinPts: 8, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		st := &res.Stats.CoreStats
		st.IndexBuild, st.Phases = 0, PhaseTimes{}
		st.SVDD = SVDDTimes{NotConverged: st.SVDD.NotConverged}
		runs[i] = res
	}
	if !slices.Equal(runs[0].Labels, runs[1].Labels) || runs[0].Clusters != runs[1].Clusters {
		t.Error("Seed 1 and Seed 99 give different labels")
	}
	if runs[0].Stats.CoreStats != runs[1].Stats.CoreStats {
		t.Errorf("Seed 1 and Seed 99 give different counters:\n%+v\n%+v", runs[0].Stats.CoreStats, runs[1].Stats.CoreStats)
	}
	if runs[0].Stats.SVDDTrainings == 0 {
		t.Error("the runs trained no SVDD, so the comparison shows nothing")
	}
}
