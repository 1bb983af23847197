package fd

import (
	"context"
	"time"

	"clio/internal/budget"
	"clio/internal/fault"
	"clio/internal/graph"
	"clio/internal/obs"
	"clio/internal/relation"
)

// ExplainResult describes one traced D(G) computation: the algorithm
// Compute runs for the graph and why-shaped facts (tree-ness, node and
// subset counts), the memo-cache disposition the equivalent Compute
// call would have seen, and the executed operator tree with
// per-operator rows/batches/timing span attributes.
//
// Cache is "hit"/"miss" per the pre-run peek, "disabled" when no cache
// is configured, or "stale" when a base relation mutated while the
// explain ran: the peek's answer no longer describes the rendered
// result, so reporting it would lie, and the result is not memoized.
type ExplainResult struct {
	Algo    string `json:"algo"`
	Cache   string `json:"cache"` // "hit", "miss", "stale", or "disabled"
	IsTree  bool   `json:"is_tree"`
	Nodes   int    `json:"nodes"`
	Subsets int    `json:"subsets,omitempty"`
	Tuples  int    `json:"tuples"`
	// Spilled reports whether any operator of this run wrote spill
	// partitions; SpillParts counts the partition files created and
	// SpillBytes the bytes written to them (cumulative over the run —
	// the files themselves are removed before the result returns).
	Spilled    bool  `json:"spilled,omitempty"`
	SpillParts int64 `json:"spill_parts,omitempty"`
	SpillBytes int64 `json:"spill_bytes,omitempty"`
	// SpillDepth is the deepest recursive re-partitioning level the run
	// reached (0 = no partition exceeded the resident cap);
	// SpillRecursions counts re-partitioning events. PartitionSkew is
	// the largest partition's share of the spilled bytes scaled by the
	// partition count (1 = uniform, n = one hot partition out of n).
	SpillDepth      int64         `json:"spill_depth,omitempty"`
	SpillRecursions int64         `json:"spill_recursions,omitempty"`
	PartitionSkew   float64       `json:"partition_skew,omitempty"`
	Duration        time.Duration `json:"-"`
	Root            *obs.SpanData `json:"-"`
}

// ExplainCompute computes D(G) like Compute but always executes (never
// answers from the memo cache) so the returned span tree reflects a
// real run, and reports what the cache would have said alongside the
// algorithm. The fresh result is stored back into the cache, so an
// explain call warms rather than bypasses it. Root is nil when
// instrumentation is disabled (there are no spans to retain). Algo
// comes from algoFor, as Compute's dispatch does.
func ExplainCompute(ctx context.Context, g *graph.QueryGraph, in *relation.Instance) (*ExplainResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := &ExplainResult{Cache: "disabled", IsTree: g.IsTree(), Nodes: g.NodeCount()}
	key, cacheable := cacheKey(g, in)
	if cacheable {
		if cachePeek(key) {
			res.Cache = "hit"
		} else {
			res.Cache = "miss"
		}
	}
	if !res.IsTree {
		res.Subsets = len(g.ConnectedSubsets())
	}
	res.Algo = algoFor(g)
	// Chaos hook: a delay injected here widens the window between the
	// cache peek above and the computation below, which is how the
	// stale-disposition regression test provokes a mid-explain mutation.
	if err := fault.Inject("fd.explain.compute"); err != nil {
		return nil, err
	}
	// Wrap the run in an explain span so the computation's own root
	// (fd.compute) is reachable as a child even when this context
	// already carries a serving-layer span.
	ctx, span := obs.StartSpan(ctx, "fd.explain")
	tr := budget.FromContext(ctx)
	parts0, written0 := tr.SpillParts(), tr.SpillWritten()
	start := time.Now()
	d, err := computeUncached(ctx, g, in)
	span.End()
	res.Duration = time.Since(start)
	if err != nil {
		return nil, err
	}
	res.Tuples = d.Len()
	res.SpillParts = tr.SpillParts() - parts0
	res.SpillBytes = tr.SpillWritten() - written0
	res.Spilled = res.SpillParts > 0
	res.SpillDepth = tr.SpillDepth()
	res.SpillRecursions = tr.SpillRecursions()
	res.PartitionSkew = tr.PartitionSkew()
	if data := span.Data(); data != nil && len(data.Children) > 0 {
		res.Root = data.Children[0]
	}
	if cacheable && !cacheStoreChecked(key, g, in, d) {
		// A relation mutated between the peek and here: the peeked
		// disposition describes content that no longer exists. Say so
		// instead of reporting a hit/miss for the wrong content (and
		// leave the cache alone — cacheStoreChecked already refused).
		res.Cache = "stale"
	}
	return res, nil
}
