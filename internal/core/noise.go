package core

import (
	"math"

	"dbsvec/internal/cluster"
	"dbsvec/internal/index"
)

// noiseVerification is the final DBSVEC phase (Algorithm 2 line 16): every
// potential noise point either joins the cluster of its nearest core
// neighbor or is confirmed as noise. The ε-neighborhoods stored during
// initialization are reused, so the only new work is core-point tests on
// the (fewer than MinPts) neighbors of each candidate — the paper's
// O(MinPts·l·n) term. Those tests have no ordering dependency, so they are
// collected up front (deduplicated, first-seen order) and submitted as one
// counting-query batch; the attach pass below then runs sequentially
// against the warmed core cache, keeping labels and stats identical to the
// sequential formulation for every worker count.
func (r *runner) noiseVerification() error {
	if err := r.checkpoint(); err != nil {
		return err
	}
	// corePending marks ids already collected into the batch; it never
	// escapes this function (every pending id is resolved below).
	const corePending coreState = 3
	var cand []int32
	for k, id := range r.noiseIDs {
		if r.labels[id] != cluster.Noise {
			continue // absorbed by an expansion in the meantime
		}
		for _, q := range r.noiseHoods[k] {
			if q != id && r.core[q] == coreUnknown {
				r.core[q] = corePending
				cand = append(cand, q)
			}
		}
	}
	if len(cand) > 0 {
		counts, err := r.idx.BatchRangeCount(r.ctx, index.PointQueries(r.ds, cand), r.opts.Eps, r.opts.MinPts, r.workers, r.counts)
		if err != nil {
			for _, q := range cand {
				r.core[q] = coreUnknown
			}
			return r.queryErr(err)
		}
		r.counts = counts
		r.stats.RangeCounts += int64(len(cand))
		for i, q := range cand {
			if counts[i] >= r.opts.MinPts {
				r.core[q] = coreYes
			} else {
				r.core[q] = coreNo
			}
		}
	}

	for k, id := range r.noiseIDs {
		if r.labels[id] != cluster.Noise {
			continue
		}
		hood := r.noiseHoods[k]
		best := int32(-1)
		bestD := math.Inf(1)
		for _, q := range hood {
			if q == id {
				continue
			}
			// A core neighbor must itself be clustered; a core point is
			// never noise, and every core point seen by the main loop was
			// assigned a cluster.
			if !r.isCore(q) || r.labels[q] < 0 {
				continue
			}
			if d := r.ds.Dist2(int(id), int(q)); d < bestD {
				best, bestD = q, d
			}
		}
		if best >= 0 {
			r.labels[id] = r.labels[best]
		}
	}
	return nil
}
