package fd

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"clio/internal/budget"
	"clio/internal/graph"
	"clio/internal/obs"
	"clio/internal/relation"
)

// EXPLAIN reports the algorithm Compute runs: for a tree and a cycle,
// ExplainCompute's Algo equals the algo attribute of the fd.compute
// span a traced Compute emits.
func TestExplainAlgoMatchesComputeSpan(t *testing.T) {
	wasEnabled := obs.Enabled()
	obs.SetEnabled(true)
	col := &obs.CollectExporter{}
	obs.SetExporter(col)
	prev := SetCacheCapacity(0)
	defer func() {
		SetCacheCapacity(prev)
		obs.SetExporter(nil)
		obs.SetEnabled(wasEnabled)
	}()

	rng := rand.New(rand.NewSource(23))
	tg, tin := randomTreeCase(rng, 3, 4)
	cg, cin := smallTriangle()
	cases := []struct {
		name string
		g    *graph.QueryGraph
		in   *relation.Instance
		want string
	}{
		{"tree", tg, tin, "outer_join"},
		{"cycle", cg, cin, "subgraph"},
	}
	for _, c := range cases {
		col.Reset()
		_, cerr := Compute(context.Background(), c.g, c.in)
		var spanAlgo any
		for _, root := range col.Roots() {
			if root.Name == "fd.compute" {
				spanAlgo = obs.AttrMap(root)["algo"]
			}
		}
		res, eerr := ExplainCompute(context.Background(), c.g, c.in)
		if (cerr == nil) != (eerr == nil) {
			t.Fatalf("%s: Compute err %v, ExplainCompute err %v", c.name, cerr, eerr)
		}
		if res == nil {
			t.Fatalf("%s: ExplainCompute returned no result (err %v)", c.name, eerr)
		}
		if res.Algo != c.want || spanAlgo != res.Algo {
			t.Errorf("%s: explain algo %q, fd.compute span algo %v, want both %q", c.name, res.Algo, spanAlgo, c.want)
		}
	}
}

// doomedCase is a graph with the row count the budget's refusal must
// come at or after.
type doomedCase struct {
	name  string
	g     *graph.QueryGraph
	in    *relation.Instance
	floor int64
}

// doomedCases returns a tree and a cyclic graph. Every row of the
// largest base reaches a tree's outer-join output, and subgraph
// enumeration pads every row of every base as a singleton subset.
func doomedCases() []doomedCase {
	rng := rand.New(rand.NewSource(31))
	tg, tin := randomTreeCase(rng, 3, 6)
	cg, cin := randomCyclicCase(rng, 4, 4)
	var treeMax, cycleSum int64
	for _, name := range tg.Nodes() {
		n, _ := tg.Node(name)
		treeMax = max(treeMax, int64(tin.Relation(n.Base).Len()))
	}
	for _, name := range cg.Nodes() {
		n, _ := cg.Node(name)
		cycleSum += int64(cin.Relation(n.Base).Len())
	}
	return []doomedCase{
		{"tree", tg, tin, treeMax},
		{"cycle", cg, cin, cycleSum},
	}
}

// Work that cannot fit its row budget is refused at its first refused
// charge, mid-run, and leaves nothing behind: Compute and
// ExplainCompute answer the same typed error, nothing is memoized, and
// an unbudgeted retry is the fresh D(G).
func TestBudgetDoomedComputeRefusedMidRun(t *testing.T) {
	withCache(t, 8)
	for _, c := range doomedCases() {
		want, err := computeUncached(context.Background(), c.g, c.in)
		if err != nil {
			t.Fatal(err)
		}
		entries := CacheLen()
		b := Budget{MaxRows: c.floor - 1}
		_, cerr := Compute(WithBudget(context.Background(), b), c.g, c.in)
		res, eerr := ExplainCompute(WithBudget(context.Background(), b), c.g, c.in)
		var cbe, ebe *BudgetError
		if !errors.As(cerr, &cbe) || cbe.Limit != "rows" || cbe.Spill != SpillDisabled {
			t.Fatalf("%s: Compute under %d rows returned %v, want a rows/disabled budget error", c.name, b.MaxRows, cerr)
		}
		if !errors.As(eerr, &ebe) || *ebe != *cbe || res != nil {
			t.Fatalf("%s: ExplainCompute returned %v (result %v), want Compute's %v", c.name, eerr, res, cerr)
		}
		if CacheLen() != entries {
			t.Fatalf("%s: refused work changed the cache from %d to %d entries", c.name, entries, CacheLen())
		}
		got, err := Compute(context.Background(), c.g, c.in)
		if err != nil {
			t.Fatalf("%s: unbudgeted retry: %v", c.name, err)
		}
		requireSameDG(t, got, want)
	}
}

// The same doomed graphs under a spill budget with recursion off whose
// byte cap cannot hold the D(G) front: the run spills, is refused with
// the plain spill-enabled error, and unwinds every charge and every
// partition file.
func TestBudgetDoomedSpillComputeLeavesNoResidue(t *testing.T) {
	prev := SetCacheCapacity(0)
	defer SetCacheCapacity(prev)
	for _, c := range doomedCases() {
		want, err := computeUncached(context.Background(), c.g, c.in)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		tr := budget.NewTracker(Budget{MaxBytes: approxRelationBytes(want) / 2, SpillDir: dir, SpillRecursionDepth: -1})
		_, err = Compute(budget.With(context.Background(), tr), c.g, c.in)
		var be *BudgetError
		if !errors.As(err, &be) || be.Spill != SpillEnabled {
			t.Fatalf("%s: spilled run under half the front returned %v, want a spill-enabled budget error", c.name, err)
		}
		if tr.SpillWritten() == 0 {
			t.Fatalf("%s: the refused run never spilled — the test is vacuous", c.name)
		}
		if tr.Rows() != 0 || tr.Bytes() != 0 || tr.SpillBytes() != 0 {
			t.Fatalf("%s: refusal leaked charges: rows=%d bytes=%d spill=%d", c.name, tr.Rows(), tr.Bytes(), tr.SpillBytes())
		}
		if left, _ := filepath.Glob(filepath.Join(dir, "clio-spill-*.part")); len(left) != 0 {
			t.Fatalf("%s: refusal left partition files: %v", c.name, left)
		}
	}
}
