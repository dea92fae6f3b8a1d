package core

import "dbsvec/internal/svdd"

// RetainedModel records one SVDD training event of a retained run. A
// sub-cluster that trained over several expansion rounds contributes one
// entry per round, so the retained set covers the full lifetime of each
// boundary — the final round's support vectors sit only on the final
// frontier, while earlier rounds cover the interior the frontier moved
// through. Entries are appended in training order, which is deterministic
// for a fixed seed and independent of the worker count.
type RetainedModel struct {
	// Cluster is the final compacted cluster id (an index into the result's
	// dense label space) the sub-cluster resolved to after merging.
	Cluster int32
	// Degraded marks a training round that failed recoverably and pushed
	// the sub-cluster onto the exact range-query fallback.
	Degraded bool
	// Snap is the model snapshot. It is nil only on degraded entries whose
	// solve produced no usable model (degenerate kernel width, empty
	// target); non-convergence and all-SV blowups still carry their
	// best-effort model.
	Snap *svdd.Snapshot
}

// retainModel snapshots a training round's model under the raw seed cluster
// id. finalizeRetained remaps the ids once merging has settled. Models whose
// multipliers all collapsed below the support-vector threshold retain no
// snapshot (nothing to evaluate against).
func (r *runner) retainModel(cid int32, m *svdd.Model, degraded bool) {
	if !r.retain {
		return
	}
	var snap *svdd.Snapshot
	if m != nil {
		if s := m.Snapshot(); s.SVCount() > 0 {
			snap = s
		}
	}
	if snap == nil && !degraded {
		return
	}
	r.retained = append(r.retained, RetainedModel{Cluster: cid, Degraded: degraded, Snap: snap})
}

// finalizeRetained rewrites the raw seed cluster ids of the retained entries
// into the final dense label space by replaying Compact's first-appearance
// remap over the canonicalized labels (which must already hold union-find
// roots). Entries whose cluster labels no point — every member re-absorbed
// by a merge that left the root unreferenced, or a tripped budget — are
// dropped: they have no final id to carry.
func (r *runner) finalizeRetained(labels []int32) []RetainedModel {
	if !r.retain {
		return nil
	}
	remap := make(map[int32]int32)
	next := int32(0)
	for _, l := range labels {
		if l < 0 {
			continue
		}
		if _, ok := remap[l]; !ok {
			remap[l] = next
			next++
		}
	}
	out := r.retained[:0]
	for _, e := range r.retained {
		final, ok := remap[r.clusterSet.Find(e.Cluster)]
		if !ok {
			continue
		}
		e.Cluster = final
		out = append(out, e)
	}
	return out
}

// priorAlphas flattens a snapshot set into a point-id → multiplier map for
// round-one warm restarts. When several snapshots carry the same point (a
// support vector that sat on a shared frontier), the largest multiplier wins;
// iterating the snapshots in slice order makes the tie-break deterministic.
func priorAlphas(snaps []*svdd.Snapshot) map[int32]float64 {
	prior := make(map[int32]float64)
	for _, s := range snaps {
		if s == nil {
			continue
		}
		for i, id := range s.IDs {
			if a := s.Alpha[i]; a > prior[id] {
				prior[id] = a
			}
		}
	}
	if len(prior) == 0 {
		return nil
	}
	return prior
}

// warmFromPrior maps the prior multipliers onto the target ids (0 for points
// the prior does not carry; the solver clamps and renormalizes). It returns
// nil when the target shares no point with the prior set — a cold start is
// the better seed for genuinely new data.
func warmFromPrior(ids []int32, prior map[int32]float64) []float64 {
	warm := make([]float64, len(ids))
	any := false
	for i, id := range ids {
		if a, ok := prior[id]; ok {
			warm[i] = a
			any = true
		}
	}
	if !any {
		return nil
	}
	return warm
}
