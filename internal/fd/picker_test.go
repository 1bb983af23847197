package fd

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"clio/internal/graph"
	"clio/internal/obs"
	"clio/internal/relation"
)

// One assertion per pickAlgo routing branch: the picker is the only
// place Compute decides between abort, the outer-join chain, and
// subgraph enumeration.
func TestPickAlgoBranches(t *testing.T) {
	cases := []struct {
		name     string
		isTree   bool
		estimate int64
		headroom int64
		spill    bool
		want     string
	}{
		{"abort when lower bound exceeds headroom", true, 11, 10, false, "abort"},
		{"abort applies to cyclic graphs too", false, 11, 10, false, "abort"},
		{"tree routes to outer join", true, 10, 10, false, "outer_join"},
		{"tree with unlimited budget", true, 1 << 40, -1, false, "outer_join"},
		{"cyclic routes to subgraph", false, 1 << 40, -1, false, "subgraph"},
		{"zero estimate never aborts", false, 0, 0, false, "subgraph"},
		// Spill mode: the cumulative lower bound no longer proves
		// failure (charges refund as state moves to disk), so the
		// up-front abort is off.
		{"spill never aborts a tree", true, 11, 10, true, "outer_join"},
		{"spill never aborts a cyclic graph", false, 11, 10, true, "subgraph"},
	}
	for _, c := range cases {
		if got := pickAlgo(c.isTree, c.estimate, c.headroom, c.spill); got != c.want {
			t.Errorf("%s: pickAlgo(%v, %d, %d, %v) = %q, want %q",
				c.name, c.isTree, c.estimate, c.headroom, c.spill, got, c.want)
		}
	}
}

// EXPLAIN reports the algorithm Compute runs: for a tree, a cycle and
// a doomed budget, ExplainCompute's Algo equals the algo attribute of
// the fd.compute span a traced Compute emits.
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
		name    string
		g       *graph.QueryGraph
		in      *relation.Instance
		maxRows int64
		want    string
	}{
		{"tree", tg, tin, 0, "outer_join"},
		{"cycle", cg, cin, 0, "subgraph"},
		{"doomed budget", cg, cin, 1, "abort"},
	}
	for _, c := range cases {
		col.Reset()
		_, cerr := Compute(WithBudget(context.Background(), Budget{MaxRows: c.maxRows}), c.g, c.in)
		var spanAlgo any
		for _, root := range col.Roots() {
			if root.Name == "fd.compute" {
				spanAlgo = obs.AttrMap(root)["algo"]
			}
		}
		res, eerr := ExplainCompute(WithBudget(context.Background(), Budget{MaxRows: c.maxRows}), c.g, c.in)
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

// rowHeadroom must report -1 for missing or unlimited budgets and the
// remaining rows otherwise.
func TestRowHeadroom(t *testing.T) {
	if got := rowHeadroom(context.Background()); got != -1 {
		t.Errorf("no tracker: headroom = %d, want -1", got)
	}
	if got := rowHeadroom(WithBudget(context.Background(), Budget{MaxBytes: 64})); got != -1 {
		t.Errorf("rows unlimited: headroom = %d, want -1", got)
	}
	ctx := WithBudget(context.Background(), Budget{MaxRows: 10})
	if got := rowHeadroom(ctx); got != 10 {
		t.Errorf("fresh budget: headroom = %d, want 10", got)
	}
}

// estimateRows must be a certain lower bound: max base size for trees
// (outer-join alignment charges at least the largest relation) and the
// sum of base sizes for cyclic graphs (singleton subsets alone pad one
// row per base tuple).
func TestEstimateRowsLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tg, tin := randomTreeCase(rng, 4, 6)
	est, err := estimateRows(tg, tin, true)
	if err != nil {
		t.Fatal(err)
	}
	var max, sum int64
	for _, name := range tg.Nodes() {
		n, _ := tg.Node(name)
		r, err := tin.Aliased(n.Base, n.Base)
		if err != nil {
			t.Fatal(err)
		}
		sum += int64(r.Len())
		if int64(r.Len()) > max {
			max = int64(r.Len())
		}
	}
	if est != max {
		t.Errorf("tree estimate = %d, want max base size %d", est, max)
	}
	if cyc, _ := estimateRows(tg, tin, false); cyc != sum {
		t.Errorf("cyclic estimate = %d, want sum of base sizes %d", cyc, sum)
	}
}

// A budget below the picker's lower bound must abort Compute up front
// with the same typed error a doomed run would return — Limit "rows"
// — and without charging any join work.
func TestBudgetPickerAbortsDoomedCompute(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	g, in := randomTreeCase(rng, 3, 6)
	est, err := estimateRows(g, in, g.IsTree())
	if err != nil {
		t.Fatal(err)
	}
	if est < 2 {
		t.Skip("degenerate random case: tiny base relations")
	}
	InvalidateCache()
	ctx := WithBudget(context.Background(), Budget{MaxRows: est - 1})
	_, err = Compute(ctx, g, in)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("doomed compute not refused: %v", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Limit != "rows" {
		t.Fatalf("abort error does not name the rows limit: %#v", err)
	}
	if rows, _ := BudgetUsed(ctx); rows != 0 {
		t.Errorf("picker abort still charged %d rows", rows)
	}
}
