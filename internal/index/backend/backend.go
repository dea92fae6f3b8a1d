// Package backend is the one table of range-query index backends. Each row
// holds a Kind, its CLI name and the function that builds it. The public
// API, the CLI and the experiments all resolve backends here, so adding,
// removing or wrapping a backend is a change to one row.
package backend

import (
	"context"
	"fmt"
	"math"
	"strings"

	"dbsvec/internal/core"
	"dbsvec/internal/index"
	"dbsvec/internal/index/grid"
	"dbsvec/internal/index/kdtree"
	"dbsvec/internal/index/rproj"
	"dbsvec/internal/index/rtree"
	"dbsvec/internal/index/vptree"
	"dbsvec/internal/vec"
)

// Kind selects a range-query backend. The zero value is Linear.
type Kind int

// The backends, in table order.
const (
	Linear Kind = iota
	KDTree
	RTree
	Grid
	VPTree
	RProj
)

// table is indexed by Kind. build resolves the builder for a run with
// radius eps and the given build worker count (<= 0 selects all CPUs);
// every backend builds the same structure for every worker count.
var table = [...]struct {
	name  string
	build func(eps float64, workers int) (index.CtxBuilder, error)
}{
	Linear: {"linear", bound(index.NewLinear)},
	KDTree: {"kdtree", bound(kdtree.New)},
	RTree:  {"rtree", bound(rtree.New)},
	Grid:   {"grid", gridBuilder},
	VPTree: {"vptree", bound(vptree.New)},
	RProj:  {"rproj", bound(rproj.New)},
}

// bound adapts a constructor of the shared New(ctx, ds, workers) form to a
// table row; only the grid needs eps.
func bound[T index.Index](build func(context.Context, *vec.Dataset, int) (T, error)) func(float64, int) (index.CtxBuilder, error) {
	return func(_ float64, workers int) (index.CtxBuilder, error) { return index.Bind(build, workers), nil }
}

// gridBuilder bins points into cells of width eps/√d, so any two points
// sharing a cell are within eps of each other.
func gridBuilder(eps float64, workers int) (index.CtxBuilder, error) {
	if !(eps > 0) {
		return nil, fmt.Errorf("%w: grid index requires eps > 0, got %g", core.ErrInvalidParams, eps)
	}
	return func(ctx context.Context, ds *vec.Dataset) (index.Index, error) {
		width := eps
		if d := ds.Dim(); d > 0 {
			width = eps / math.Sqrt(float64(d))
		}
		g, err := grid.New(ctx, ds, width, workers)
		if err != nil {
			return nil, err
		}
		return g, nil
	}, nil
}

// Kinds returns every backend in table order.
func Kinds() []Kind {
	kinds := make([]Kind, len(table))
	for i := range kinds {
		kinds[i] = Kind(i)
	}
	return kinds
}

// String returns the backend's CLI name.
func (k Kind) String() string {
	if !k.valid() {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return table[k].name
}

// Parse maps a CLI name to its Kind. An unknown name wraps
// core.ErrInvalidParams.
func Parse(name string) (Kind, error) {
	for _, k := range Kinds() {
		if table[k].name == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("%w: unknown index %q (want %s)", core.ErrInvalidParams, name, strings.Join(Names(), "|"))
}

// Names lists the CLI names in table order.
func Names() []string {
	names := make([]string, len(table))
	for i, row := range table {
		names[i] = row.name
	}
	return names
}

// Builder resolves k to the builder for a run with radius eps and the given
// build worker count. An unknown kind, or a grid without a positive eps,
// wraps core.ErrInvalidParams.
func (k Kind) Builder(eps float64, workers int) (index.CtxBuilder, error) {
	if !k.valid() {
		return nil, fmt.Errorf("%w: unknown index kind %d", core.ErrInvalidParams, int(k))
	}
	return table[k].build(eps, workers)
}

func (k Kind) valid() bool { return k >= 0 && int(k) < len(table) }
