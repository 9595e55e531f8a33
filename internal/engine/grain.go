// Package engine holds the grain the serving path's request batchers
// run with.
package engine

// GrainBatch is for internal/serve's request batchers: one job per
// chunk, so concurrent small jobs spread across workers and every job
// boundary is a cancellation checkpoint (deadline accuracy matters more
// than scheduling overhead there — jobs, not indices, are the unit of
// work).
func GrainBatch() int { return 1 }
