package dbsvec

import (
	"dbsvec/internal/cluster"
	"dbsvec/internal/core"
	"dbsvec/internal/data"
	"dbsvec/internal/shard"
	"dbsvec/internal/vec"
)

// ShardStats reports a sharded run: the slab plan (axis, cuts), per-shard
// execution stats (each with its own index-build time, phase breakdown and
// θ-model counters), halo-merge work, and the sampled peak live heap — the
// number the out-of-core memory cap bounds.
type ShardStats = shard.Stats

// ShardStat is one shard's execution report inside ShardStats.
type ShardStat = shard.ShardStat

// RunSharded clusters the dataset in Options.Shards eps-halo spatial slabs
// and merges the per-shard results into the exact global clustering: labels
// are identical to Cluster for Shards=1 and label-permutation-identical for
// any shard count, worker count and precision on data where DBSVEC is
// DBSCAN-exact (see DESIGN.md "Sharded execution & out-of-core streaming").
// Peak memory is O(ShardConcurrency × slab) beyond the dataset itself; use
// RunShardedFile to stream slabs from disk and drop the dataset term too.
//
// Options.Budget applies per shard: a tripped shard contributes its valid
// partial clustering and the merged Result comes back with a
// *BudgetExceededError.
func RunSharded(d *Dataset, opts Options) (*Result, error) {
	if d == nil {
		return nil, core.ErrNilDataset
	}
	return runSharded(shard.NewMemSource(d.ds), d.Dim(), d.Precision(), opts)
}

// RunShardedFile is RunSharded over a binary dataset file (WriteBinary
// format) streamed out-of-core: each slab is block-read from disk, clustered,
// reduced to its boundary summary, and released before the next slab loads,
// so the whole dataset is never resident — peak heap stays at
// O(ShardConcurrency × slab + per-point bookkeeping).
func RunShardedFile(path string, opts Options) (*Result, error) {
	fs, err := shard.OpenFile(path)
	if err != nil {
		return nil, err
	}
	defer fs.Close()
	// The effective precision matches what ReadBinary would produce: the
	// file's own storage precision, further quantized when the process
	// default is F32.
	prec := fs.Header().Precision()
	if vec.DefaultPrecision() == vec.F32 {
		prec = vec.F32
	}
	return runSharded(fs, fs.Dim(), prec, opts)
}

func runSharded(src shard.Source, dim int, prec Precision, opts Options) (*Result, error) {
	co, err := opts.coreOptions()
	if err != nil {
		return nil, err
	}
	so := shard.Options{
		Core:        co,
		Shards:      opts.Shards,
		Concurrency: opts.ShardConcurrency,
		Retain:      true,
	}
	res, models, sst, err := shard.Run(src, so)
	if err != nil && res == nil {
		return nil, err
	}
	out := wrapResult(res)
	retained := make([]core.RetainedModel, len(models))
	for i, m := range models {
		retained[i] = m.RetainedModel
	}
	out.model = newModelDims(dim, prec, opts, res, retained)
	out.Stats = aggregateShardStats(&sst)
	return out, err
}

// aggregateShardStats sums the per-shard core stats into the top-level Stats
// and attaches the full sharding report.
func aggregateShardStats(sst *ShardStats) Stats {
	st := Stats{Sharding: sst}
	for i := range sst.Shards {
		st.Add(sst.Shards[i].Core)
	}
	return st
}

// newModelDims builds the model artifact when no Dataset object exists (the
// out-of-core path knows only the file's shape and precision).
func newModelDims(dim int, prec Precision, opts Options, res *cluster.Result, retained []core.RetainedModel) *Model {
	entries := make([]data.ModelEntry, len(retained))
	for i, e := range retained {
		entries[i] = data.ModelEntry{Cluster: e.Cluster, Degraded: e.Degraded, Snap: e.Snap}
	}
	mp := data.ModelPrecisionF64
	if prec == PrecisionF32 {
		mp = data.ModelPrecisionF32
	}
	return &Model{art: &data.ModelArtifact{
		Kind:      data.ModelKindClustering,
		Precision: mp,
		Eps:       opts.Eps,
		MinPts:    opts.MinPts,
		Dim:       dim,
		Clusters:  res.Clusters,
		Entries:   entries,
	}}
}
