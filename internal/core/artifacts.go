package core

import (
	"dbsvec/internal/data"
	"dbsvec/internal/svdd"
)

// RetainedModel records one SVDD training event of a retained run: the
// final compacted cluster id it resolved to after merging, whether the
// round degraded onto the exact range-query fallback, and the snapshot (nil
// only on degraded entries whose solve produced no usable model). It is the
// model file's entry type, so a retained run saves without a copy. A
// sub-cluster that trained over several expansion rounds contributes one
// entry per round, so the retained set covers the full lifetime of each
// boundary — the final round's support vectors sit only on the final
// frontier, while earlier rounds cover the interior the frontier moved
// through. Entries are appended in training order, which is deterministic
// and independent of the worker count.
type RetainedModel = data.ModelEntry

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
