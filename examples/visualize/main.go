// Visualize: regenerate the paper's Figure 1 — DBSCAN vs DBSVEC on the
// t4.8k analogue — as two SVG scatter plots written to the working
// directory (fig1_dbscan.svg, fig1_dbsvec.svg).
//
// Run with:
//
//	go run ./examples/visualize [-out .]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"dbsvec"
	"dbsvec/internal/data"
)

func main() {
	out := flag.String("out", ".", "output directory for the SVG files")
	flag.Parse()

	// The t4.8k stand-in: 8000 2-D points in six arbitrary shapes over
	// uniform noise, with the paper's Figure 1 parameters.
	raw := data.Chameleon48K(1)
	rows := make([][]float64, raw.Len())
	for i := range rows {
		rows[i] = append([]float64(nil), raw.Point(i)...)
	}
	ds, err := dbsvec.NewDataset(rows)
	if err != nil {
		log.Fatal(err)
	}
	const (
		eps    = 8.5
		minPts = 20
	)

	exact, err := dbsvec.DBSCAN(ds, eps, minPts, dbsvec.IndexRTree)
	if err != nil {
		log.Fatal(err)
	}
	approx, err := dbsvec.Cluster(ds, dbsvec.Options{Eps: eps, MinPts: minPts})
	if err != nil {
		log.Fatal(err)
	}
	recall, err := dbsvec.PairRecall(exact, approx)
	if err != nil {
		log.Fatal(err)
	}

	write := func(name, title string, res *dbsvec.Result) {
		path := filepath.Join(*out, name)
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := dbsvec.WriteSVG(f, ds, res, dbsvec.PlotOptions{Title: title, PointRadius: 2}); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", path)
	}
	write("fig1_dbscan.svg", fmt.Sprintf("(a) DBSCAN on t4.8k — %d clusters", exact.Clusters), exact)
	write("fig1_dbsvec.svg", fmt.Sprintf("(b) DBSVEC on t4.8k — %d clusters", approx.Clusters), approx)
	fmt.Printf("clusters: dbscan=%d dbsvec=%d, pair recall=%.3f\n", exact.Clusters, approx.Clusters, recall)
}
