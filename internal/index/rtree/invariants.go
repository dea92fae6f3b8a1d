package rtree

import "fmt"

// checkNode recursively verifies structural invariants:
//   - every non-root node has between 1 and MaxEntries entries (STR packing
//     guarantees only the upper bound),
//   - every internal entry's rectangle tightly covers its child's contents.
func checkNode(nd *nodeT, dim int, isRoot bool) error {
	if !isRoot && len(nd.entries) < 1 {
		return fmt.Errorf("rtree: empty non-root node")
	}
	if len(nd.entries) > MaxEntries {
		return fmt.Errorf("rtree: node has %d entries > max %d", len(nd.entries), MaxEntries)
	}
	if nd.leaf {
		for i := range nd.entries {
			if nd.entries[i].child != nil {
				return fmt.Errorf("rtree: leaf entry %d has a child", i)
			}
		}
		return nil
	}
	for i := range nd.entries {
		e := &nd.entries[i]
		if e.child == nil {
			return fmt.Errorf("rtree: internal entry %d has no child", i)
		}
		want := nodeRect(e.child, dim)
		for j := 0; j < dim; j++ {
			if e.rect.Lo[j] > want.Lo[j] || e.rect.Hi[j] < want.Hi[j] {
				return fmt.Errorf("rtree: entry %d rect does not cover child (dim %d: [%g,%g] vs child [%g,%g])",
					i, j, e.rect.Lo[j], e.rect.Hi[j], want.Lo[j], want.Hi[j])
			}
		}
		if err := checkNode(e.child, dim, false); err != nil {
			return err
		}
	}
	return nil
}
