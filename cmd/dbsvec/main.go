// Command dbsvec clusters a CSV file of numeric rows and writes the input
// back with a cluster-label column appended (-1 = noise).
//
// Usage:
//
//	dbsvec -eps 5000 -minpts 100 [-algo dbsvec] [-in points.csv] [-out labeled.csv]
//	       [-nu 0] [-normalize 0] [-index linear] [-precision f64] [-seed 1]
//	       [-workers 0] [-stats] [-timeout 0] [-maxrounds 0] [-maxqueries 0]
//	       [-savemodel model.bin] [-loadmodel model.bin] [-assign]
//	       [-shards 0] [-shardpar 1] [-shardmem]
//
// Algorithms: dbsvec (default), dbscan, pdbscan, rho, lsh, nq, kmeans
// (with -k). -seed drives the random draws of lsh and kmeans; the other
// algorithms draw none.
// Reading from stdin and writing to stdout are the defaults.
//
// Sharded execution (-algo dbsvec only): -shards k clusters the input in k
// eps-halo spatial slabs with an exact boundary merge; -shardpar caps the
// slabs in flight. Adding -shardmem streams the slabs out-of-core: -in must
// then name a binary dataset file (datagen -format bin), which is clustered
// slab by slab without ever holding the whole dataset in memory, and the
// labeled CSV is streamed back from the same file. In -shardmem mode the
// file header selects the precision, so -precision must stay f64 (the
// default).
//
// The -timeout / -maxrounds / -maxqueries flags bound the DBSVEC run's work
// (wall clock, SVDD trainings, range queries). When a limit fires, the
// best-effort partial clustering is still written to -out; the exceeded
// budget is reported on stderr and the exit code stays 0.
//
// Model artifacts (-algo dbsvec only): -savemodel writes the run's retained
// per-sub-cluster SVDD snapshots to a binary model file. -loadmodel -assign
// reads one back and classifies the input points against the loaded model's
// boundaries (no clustering run); each flag without the other is a usage
// error.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"dbsvec"
	"dbsvec/internal/data"
	"dbsvec/internal/index/backend"
)

type budgetFlags struct {
	timeout    time.Duration
	maxRounds  int
	maxQueries int64
}

// modelFlags groups the model-artifact options: save the trained model, or
// load a prior one and assign against it.
type modelFlags struct {
	save   string
	load   string
	assign bool
}

// shardFlags groups the sharded-execution options: slab count, shard-level
// concurrency cap, and the out-of-core binary-input mode.
type shardFlags struct {
	shards int
	par    int
	mem    bool
}

func main() {
	var (
		algo      = flag.String("algo", "dbsvec", "algorithm: dbsvec|dbscan|pdbscan|rho|lsh|nq|kmeans")
		eps       = flag.Float64("eps", 0, "epsilon radius (required for density-based algorithms)")
		minPts    = flag.Int("minpts", 0, "density threshold MinPts")
		k         = flag.Int("k", 0, "cluster count for kmeans")
		nu        = flag.Float64("nu", 0, "DBSVEC penalty factor nu (0 = adaptive nu*)")
		inPath    = flag.String("in", "", "input CSV (default stdin)")
		outPath   = flag.String("out", "", "output CSV with labels (default stdout)")
		normalize = flag.Float64("normalize", 0, "rescale every dimension to [0,S] before clustering (0 = off)")
		indexKind = flag.String("index", "linear", "range-query index: "+strings.Join(backend.Names(), "|"))
		precision = flag.String("precision", "f64", "point-storage precision: f64 (exact) or f32 (half the scan bandwidth, one quantization at load)")
		seed      = flag.Int64("seed", 1, "random seed for -algo lsh and kmeans (dbsvec draws none)")
		workers   = flag.Int("workers", 0, "query-engine worker goroutines (0 = all CPUs)")
		stats     = flag.Bool("stats", false, "print run statistics to stderr")
		timeout   = flag.Duration("timeout", 0, "dbsvec: wall-clock budget; on expiry the partial clustering is written (0 = unlimited)")
		maxRound  = flag.Int("maxrounds", 0, "dbsvec: SVDD training budget (0 = unlimited)")
		maxQuery  = flag.Int64("maxqueries", 0, "dbsvec: range-query budget (0 = unlimited)")
		saveModel = flag.String("savemodel", "", "dbsvec: write the trained model artifact to this file")
		loadModel = flag.String("loadmodel", "", "dbsvec: read a model artifact to score the input against (requires -assign)")
		assign    = flag.Bool("assign", false, "classify the input points against -loadmodel instead of clustering")
		shards    = flag.Int("shards", 0, "dbsvec: cluster in this many eps-halo spatial slabs with exact merge (0 = single-shot)")
		shardPar  = flag.Int("shardpar", 0, "dbsvec: shards in flight at once; peak memory is O(shardpar × slab) (0 = 1, fully sequential)")
		shardMem  = flag.Bool("shardmem", false, "dbsvec: stream -in (a binary dataset file) out-of-core, one slab at a time; requires -shards")
	)
	flag.Parse()

	b := budgetFlags{timeout: *timeout, maxRounds: *maxRound, maxQueries: *maxQuery}
	m := modelFlags{save: *saveModel, load: *loadModel, assign: *assign}
	s := shardFlags{shards: *shards, par: *shardPar, mem: *shardMem}
	if err := run(*algo, *eps, *minPts, *k, *nu, *inPath, *outPath, *normalize, *indexKind, *precision, *seed, *workers, *stats, b, m, s); err != nil {
		fmt.Fprintf(os.Stderr, "dbsvec: %v\n", err)
		os.Exit(1)
	}
}

func run(algo string, eps float64, minPts, k int, nu float64, inPath, outPath string, normalize float64, indexKind, precision string, seed int64, workers int, stats bool, budget budgetFlags, model modelFlags, sharding shardFlags) error {
	if model.assign && model.load == "" {
		return fmt.Errorf("-assign requires -loadmodel")
	}
	if model.load != "" && !model.assign {
		return fmt.Errorf("-loadmodel requires -assign")
	}
	prec, err := dbsvec.ParsePrecision(precision)
	if err != nil {
		return err
	}
	if (model.save != "" || model.load != "") && algo != "dbsvec" {
		return fmt.Errorf("model artifacts are dbsvec-only (algo %q)", algo)
	}
	if sharding.shards > 0 || sharding.mem {
		if algo != "dbsvec" {
			return fmt.Errorf("sharded execution is dbsvec-only (algo %q)", algo)
		}
		if model.load != "" {
			return fmt.Errorf("-loadmodel is not supported in sharded mode")
		}
	}
	idx, err := backend.Parse(indexKind)
	if err != nil {
		return err
	}
	if sharding.mem {
		if sharding.shards == 0 {
			return fmt.Errorf("-shardmem requires -shards")
		}
		if inPath == "" {
			return fmt.Errorf("-shardmem streams from a binary file: -in is required")
		}
		if normalize > 0 {
			return fmt.Errorf("-normalize is not supported with -shardmem (normalization needs the whole dataset in memory)")
		}
		if prec != dbsvec.PrecisionF64 {
			return fmt.Errorf("-shardmem takes the precision from the binary file header; leave -precision at f64")
		}
		return runShardedBinary(dbsvecOptions(eps, minPts, nu, idx, workers, budget, sharding), inPath, outPath, stats, model.save)
	}
	var in io.Reader = os.Stdin
	if inPath != "" {
		f, err := os.Open(inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	ds, err := dbsvec.ReadCSV(in)
	if err != nil {
		return err
	}
	if ds, err = ds.ToPrecision(prec); err != nil {
		return err
	}
	if normalize > 0 {
		ds.Normalize(normalize)
	}

	if model.assign {
		f, err := os.Open(model.load)
		if err != nil {
			return err
		}
		loaded, err := dbsvec.LoadModel(f)
		f.Close()
		if err != nil {
			return err
		}
		return runAssign(ds, loaded, outPath, workers, stats)
	}

	start := time.Now()
	var res *dbsvec.Result
	var budgetErr *dbsvec.BudgetExceededError
	switch algo {
	case "dbsvec":
		opts := dbsvecOptions(eps, minPts, nu, idx, workers, budget, sharding)
		if sharding.shards > 0 {
			res, err = dbsvec.RunSharded(ds, opts)
		} else {
			res, err = dbsvec.Cluster(ds, opts)
		}
		budgetErr, err = partialOnBudget(res, err)
	case "dbscan":
		res, err = dbsvec.DBSCAN(ds, eps, minPts, idx)
	case "pdbscan":
		res, err = dbsvec.DBSCANParallel(ds, eps, minPts, idx, workers)
	case "rho":
		res, err = dbsvec.RhoApproximate(ds, dbsvec.RhoOptions{Eps: eps, MinPts: minPts})
	case "lsh":
		res, err = dbsvec.DBSCANLSH(ds, dbsvec.LSHOptions{Eps: eps, MinPts: minPts, Seed: seed})
	case "nq":
		res, err = dbsvec.NQDBSCAN(ds, eps, minPts)
	case "kmeans":
		var km *dbsvec.KMeansResult
		km, err = dbsvec.KMeans(ds, k, seed)
		if km != nil {
			res = km.Result
		}
	default:
		return fmt.Errorf("unknown algorithm %q", algo)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	if err := saveModel(model.save, res); err != nil {
		return err
	}
	if err := writeOut(outPath, func(w io.Writer) error { return ds.WriteCSV(w, res) }); err != nil {
		return err
	}
	if stats {
		printStats(algo, ds.Len(), ds.Dim(), res, elapsed, budgetErr)
	}
	return nil
}

// dbsvecOptions builds the options of an -algo dbsvec run, in memory or
// sharded.
func dbsvecOptions(eps float64, minPts int, nu float64, idx dbsvec.IndexKind, workers int, budget budgetFlags, sharding shardFlags) dbsvec.Options {
	return dbsvec.Options{
		Eps: eps, MinPts: minPts, Nu: nu, Index: idx, Workers: workers,
		Shards:           sharding.shards,
		ShardConcurrency: sharding.par,
		Budget: dbsvec.Budget{
			MaxDuration:     budget.timeout,
			MaxSVDDRounds:   budget.maxRounds,
			MaxRangeQueries: budget.maxQueries,
		},
	}
}

// partialOnBudget lets a tripped budget through: the run still returned a
// valid partial clustering, so it warns and clears err so the labels reach
// -out. It returns the budget error for the -stats report.
func partialOnBudget(res *dbsvec.Result, err error) (*dbsvec.BudgetExceededError, error) {
	var budgetErr *dbsvec.BudgetExceededError
	if errors.As(err, &budgetErr) && res != nil {
		fmt.Fprintf(os.Stderr, "dbsvec: %v (writing partial clustering)\n", budgetErr)
		return budgetErr, nil
	}
	return nil, err
}

// saveModel writes the run's model artifact to path (-savemodel); an empty
// path saves nothing.
func saveModel(path string, res *dbsvec.Result) error {
	if path == "" {
		return nil
	}
	m := res.Model()
	if m == nil {
		return fmt.Errorf("the run retained no model to save")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeOut runs write on the file at path, or on stdout when path is empty.
func writeOut(path string, write func(io.Writer) error) error {
	if path == "" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printStats writes the -stats report to stderr.
func printStats(algo string, n, d int, res *dbsvec.Result, elapsed time.Duration, budgetErr *dbsvec.BudgetExceededError) {
	fmt.Fprintf(os.Stderr, "algorithm=%s n=%d d=%d clusters=%d noise=%d time=%s\n",
		algo, n, d, res.Clusters, res.NoiseCount(), elapsed.Round(time.Millisecond))
	if algo == "dbsvec" {
		s := res.Stats
		fmt.Fprintf(os.Stderr, "seeds=%d supportVectors=%d merges=%d noiseList=%d rangeQueries=%d rangeCounts=%d svddTrainings=%d svddIterations=%d degraded=%d retainedModels=%d\n",
			s.Seeds, s.SupportVectors, s.Merges, s.NoiseList, s.RangeQueries, s.RangeCounts, s.SVDDTrainings, s.SVDDIterations, s.Degraded, s.RetainedModels)
		if budgetErr != nil {
			fmt.Fprintf(os.Stderr, "budgetExceeded=%s budgetElapsed=%s budgetRounds=%d budgetQueries=%d\n",
				budgetErr.Limit, budgetErr.Elapsed.Round(time.Millisecond), budgetErr.SVDDRounds, budgetErr.RangeQueries)
		}
	}
	if b := res.Stats.IndexBuild; b > 0 {
		fmt.Fprintf(os.Stderr, "indexBuild=%s\n", b.Round(time.Microsecond))
	}
	if p := res.Stats.Phases; p.Total() > 0 {
		fmt.Fprintf(os.Stderr, "phaseInit=%s phaseExpand=%s phaseVerify=%s\n",
			p.Init.Round(time.Microsecond), p.Expand.Round(time.Microsecond), p.Verify.Round(time.Microsecond))
	}
	if s := res.Stats.SVDD; s.Total() > 0 {
		fmt.Fprintf(os.Stderr, "svddFill=%s svddSolve=%s svddFinish=%s\n",
			s.Fill.Round(time.Microsecond), s.Solve.Round(time.Microsecond), s.Finish.Round(time.Microsecond))
	}
	if sh := res.Stats.Sharding; sh != nil {
		fmt.Fprintf(os.Stderr, "shards=%d axis=%d boundaryPoints=%d crossMerges=%d plan=%s shardMerge=%s peakHeapBytes=%d\n",
			len(sh.Shards), sh.Axis, sh.BoundaryPoints, sh.CrossMerges,
			sh.Plan.Round(time.Microsecond), sh.Merge.Round(time.Microsecond), sh.PeakHeapBytes)
	}
}

// runShardedBinary is the -shardmem path: the binary dataset at inPath is
// clustered out-of-core through RunShardedFile (one slab resident at a time),
// then the labeled CSV is streamed back from the same file block by block, so
// the full dataset is never held in memory.
func runShardedBinary(opts dbsvec.Options, inPath, outPath string, stats bool, modelPath string) error {
	start := time.Now()
	res, err := dbsvec.RunShardedFile(inPath, opts)
	budgetErr, err := partialOnBudget(res, err)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	if err := saveModel(modelPath, res); err != nil {
		return err
	}
	var d int
	if err := writeOut(outPath, func(w io.Writer) (err error) {
		d, err = writeLabeledBinaryCSV(inPath, w, res)
		return err
	}); err != nil {
		return err
	}
	if stats {
		printStats("dbsvec", len(res.Labels), d, res, elapsed, budgetErr)
	}
	return nil
}

// labelBlockPoints is the block size of the streamed label-CSV writer.
const labelBlockPoints = 8192

// writeLabeledBinaryCSV streams the binary dataset at path to w as labeled
// CSV — the same rows Dataset.WriteCSV would produce — reading one block of
// points at a time. Returns the dataset's dimensionality.
func writeLabeledBinaryCSV(path string, w io.Writer, res *dbsvec.Result) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	h, err := data.ReadBinaryHeader(f)
	if err != nil {
		return 0, err
	}
	if h.N != len(res.Labels) {
		return 0, fmt.Errorf("binary file holds %d points but the run labeled %d", h.N, len(res.Labels))
	}
	bw := bufio.NewWriter(w)
	buf := make([]float64, min(labelBlockPoints, h.N)*h.D)
	for start := 0; start < h.N; start += labelBlockPoints {
		count := min(labelBlockPoints, h.N-start)
		chunk := buf[:count*h.D]
		if err := data.ReadBinaryBlock(f, h, start, count, chunk); err != nil {
			return 0, err
		}
		for i := 0; i < count; i++ {
			row := chunk[i*h.D : (i+1)*h.D]
			for j, v := range row {
				if j > 0 {
					bw.WriteByte(',')
				}
				bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
			}
			fmt.Fprintf(bw, ",%d\n", res.Labels[start+i])
		}
	}
	return h.D, bw.Flush()
}

// runAssign scores the input points against a loaded model instead of
// clustering: each point gets the cluster of the SVDD boundary containing
// it (nearest-cluster fallback within ε, Noise otherwise) and the labeled
// CSV is written exactly like a clustering run's.
func runAssign(ds *dbsvec.Dataset, m *dbsvec.Model, outPath string, workers int, stats bool) error {
	// Validate the input against the model before any assignment work: a
	// dimensionality or precision mismatch should be one clear up-front
	// error, not a late failure (or silent garbage) mid-batch.
	if ds.Dim() != m.Dim() {
		return fmt.Errorf("%w: -assign input is %d-dimensional but the model was trained on %d dimensions", dbsvec.ErrInvalidParams, ds.Dim(), m.Dim())
	}
	if ds.Precision() != m.Precision() {
		return fmt.Errorf("%w: -assign input precision %s differs from the model's training precision %s (pass -precision %s)",
			dbsvec.ErrInvalidParams, ds.Precision(), m.Precision(), m.Precision())
	}
	if err := m.CheckAssignable(ds); err != nil {
		return err
	}
	start := time.Now()
	labels, err := m.Assign(ds, workers)
	if err != nil {
		return err
	}
	res := dbsvec.NewResult(labels, m.Clusters())
	elapsed := time.Since(start)

	if err := writeOut(outPath, func(w io.Writer) error { return ds.WriteCSV(w, res) }); err != nil {
		return err
	}
	if stats {
		fmt.Fprintf(os.Stderr, "assign n=%d d=%d modelClusters=%d modelSnapshots=%d modelSVs=%d noise=%d time=%s\n",
			ds.Len(), ds.Dim(), m.Clusters(), m.Snapshots(), m.SupportVectors(), res.NoiseCount(), elapsed.Round(time.Millisecond))
	}
	return nil
}
