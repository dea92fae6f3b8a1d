package dbsvec

import (
	"io"

	"dbsvec/internal/cluster"
	"dbsvec/internal/plot"
)

// PlotOptions controls WriteSVG and WriteDecisionSVG rendering: canvas size
// (default 800×600), marker radius (default 1.5), an optional title and the
// two projected dimensions (default 0 and 1).
type PlotOptions = plot.Options

// WriteDecisionSVG renders the dataset scatter over a shaded background
// marking where inField reports true — e.g. the interior of a one-class
// SVDD boundary (the paper's Figure 3 visualization). For data with more
// than two dimensions, the non-plotted coordinates of the probe points are
// fixed at the dataset mean.
func WriteDecisionSVG(w io.Writer, d *Dataset, res *Result, inField func(p []float64) bool, opts PlotOptions) error {
	var inner *cluster.Result
	if res != nil {
		inner = res.inner
	}
	return plot.DecisionSVG(w, d.ds, inner, inField, 0, opts)
}

// WriteSVG renders a 2-D scatter plot of the dataset on w, colored by the
// clustering result (nil renders all points gray). Higher-dimensional data
// is projected onto the XDim/YDim axes. This is how the repository
// regenerates the paper's Figure 1.
func WriteSVG(w io.Writer, d *Dataset, res *Result, opts PlotOptions) error {
	if res == nil {
		return plot.SVG(w, d.ds, nil, opts)
	}
	return plot.SVG(w, d.ds, res.inner, opts)
}
