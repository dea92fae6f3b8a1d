package index

// Helpers for the external tests of index_test, which can build the
// backends that import this package.
var (
	WalkDataset = walkDataset
	Shuffled    = shuffled
)
