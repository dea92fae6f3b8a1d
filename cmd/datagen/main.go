// Command datagen emits the synthetic datasets used across this repository
// as CSV on stdout.
//
// Usage:
//
//	datagen -kind spreader -n 100000 -d 8 [-seed 1]
//	datagen -kind blobs -n 10000 -d 3 -k 5
//	datagen -kind t4.8k | t7.10k | d31 | dim32 | dim64 | roadmap | uniform | ring
//	datagen -kind suite -name t4.8k          # any Table III stand-in
//	datagen -kind uniform -n 1000000 -d 32 -precision f32 -format bin  # half-size cache
//	datagen -kind embeddings -n 100000 -d 256 -k 16 -noise 0.35 -precision f32
//	datagen -kind spreader -n 10000000 -d 8 -format bin -stream > big.bin
//
// -stream generates the binary format incrementally — one point in memory at
// a time instead of the whole dataset — and is byte-identical to the
// in-memory path. It supports the unbounded-size generators (spreader,
// uniform) and requires -format bin.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dbsvec/internal/data"
	"dbsvec/internal/vec"
)

func main() {
	var (
		kind      = flag.String("kind", "spreader", "generator: spreader|blobs|embeddings|t4.8k|t7.10k|d31|dim32|dim64|roadmap|uniform|ring|suite")
		n         = flag.Int("n", 10000, "number of points")
		d         = flag.Int("d", 2, "dimensionality")
		k         = flag.Int("k", 5, "cluster count (blobs, embeddings) / hub count (roadmap)")
		noise     = flag.Float64("noise", 0.35, "perturbation scale for -kind embeddings (0: exact cluster directions, ~1: near-uniform)")
		name      = flag.String("name", "", "suite dataset name when -kind suite")
		seed      = flag.Int64("seed", 1, "random seed")
		format    = flag.String("format", "csv", "output format: csv | bin (binary, for large caches)")
		precision = flag.String("precision", "f64", "point-storage precision: f64 | f32 (f32 halves binary output and quantizes once)")
		stream    = flag.Bool("stream", false, "generate incrementally, one point resident at a time (bin format, spreader|uniform)")
	)
	flag.Parse()

	prec, err := vec.ParsePrecision(*precision)
	if err != nil {
		fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
		os.Exit(1)
	}
	if *stream {
		if err := streamOut(os.Stdout, *kind, *format, *n, *d, *seed, prec); err != nil {
			fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
			os.Exit(1)
		}
		return
	}
	ds, err := generate(*kind, *n, *d, *k, *noise, *name, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
		os.Exit(1)
	}
	if ds, err = ds.ToPrecision(prec); err != nil {
		fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
		os.Exit(1)
	}
	switch *format {
	case "csv":
		err = data.WriteCSV(os.Stdout, ds, nil)
	case "bin":
		err = data.WriteBinary(os.Stdout, ds)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
		os.Exit(1)
	}
}

// streamOut writes the dataset in the binary format incrementally: the
// generator emits one point at a time straight into a data.BinaryWriter, so
// memory stays O(d) regardless of -n. The bytes are identical to
// WriteBinary(generate(...)) because the streamed generators reuse the exact
// generation path and f32 quantization is the same single float32 rounding.
func streamOut(w io.Writer, kind, format string, n, d int, seed int64, prec vec.Precision) error {
	if format != "bin" {
		return fmt.Errorf("-stream requires -format bin (got %q)", format)
	}
	bw, err := data.NewBinaryWriter(w, n, d, prec)
	if err != nil {
		return err
	}
	emit := func(p []float64) error { return bw.WritePoints(p) }
	if vec.DefaultPrecision() == vec.F32 {
		// The f32 process default quantizes every dataset at construction,
		// the materialized generators' output included. Quantize the
		// streamed points the same way, so -stream writes the same bytes.
		q := make([]float64, d)
		emit = func(p []float64) error {
			for j, v := range p {
				q[j] = float64(float32(v))
			}
			return bw.WritePoints(q)
		}
	}
	switch kind {
	case "spreader":
		err = data.SeedSpreader{N: n, D: d, Seed: seed}.Stream(emit)
	case "uniform":
		err = data.UniformStream(n, d, 1e5, seed, emit)
	default:
		return fmt.Errorf("-stream supports kinds spreader|uniform (got %q)", kind)
	}
	if err != nil {
		return err
	}
	return bw.Close()
}

func generate(kind string, n, d, k int, noise float64, name string, seed int64) (*vec.Dataset, error) {
	switch kind {
	case "spreader":
		return data.SeedSpreader{N: n, D: d, Seed: seed}.Generate(), nil
	case "blobs":
		return data.Blobs(n, d, k, 2, 100, 0.02, seed), nil
	case "embeddings":
		return data.Embeddings(n, d, k, noise, seed), nil
	case "t4.8k":
		return data.Chameleon48K(seed), nil
	case "t7.10k":
		return data.Chameleon710K(seed), nil
	case "d31":
		return data.D31(seed), nil
	case "dim32":
		return data.DimSet(1024, 32, seed), nil
	case "dim64":
		return data.DimSet(1024, 64, seed), nil
	case "roadmap":
		return data.RoadMap(n, k, seed), nil
	case "uniform":
		return data.Uniform(n, d, 1e5, seed), nil
	case "ring":
		return data.Ring(n, 100, 1, seed), nil
	case "suite":
		e, err := data.SuiteByName(name)
		if err != nil {
			return nil, err
		}
		return e.Gen(seed), nil
	default:
		return nil, fmt.Errorf("unknown kind %q", kind)
	}
}
