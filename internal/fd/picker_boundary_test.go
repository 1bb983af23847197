package fd

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"clio/internal/budget"
)

// Boundary semantics of the budget-aware pickers, pinned at exact
// equality. budget.Tracker.Charge is charge-inclusive: charging up to
// the cap succeeds and only a strict excess errors. The pickers must
// agree — est == headroom is exactly affordable, so every refusal
// comparison is strict. These tests fail on any off-by-one drift in
// either direction (refusing affordable work, or accepting doomed
// work).

func TestPickDeltaBoundaryAtHeadroom(t *testing.T) {
	cases := []struct {
		name                           string
		deltaEst, rebuildEst, headroom int64
		want                           string
	}{
		{"delta at equality", 10, 100, 10, "delta"},
		{"rebuild at equality", 11, 10, 10, "rebuild"},
		{"abort when both exceed", 11, 11, 10, "abort"},
		{"delta at zero equality", 0, 5, 0, "delta"},
		{"unlimited applies delta", 1 << 40, 1 << 40, -1, "delta"},
	}
	for _, c := range cases {
		if got := pickDelta(c.deltaEst, c.rebuildEst, c.headroom); got != c.want {
			t.Errorf("%s: pickDelta(%d, %d, %d) = %q, want %q",
				c.name, c.deltaEst, c.rebuildEst, c.headroom, got, c.want)
		}
	}
}

func TestPickAlgoBoundaryAtHeadroom(t *testing.T) {
	// estimate == headroom must not abort, for either graph shape.
	if got := pickAlgo(true, 10, 10, false); got != "outer_join" {
		t.Errorf("tree at equality routed to %q, want outer_join", got)
	}
	if got := pickAlgo(true, 11, 10, false); got != "abort" {
		t.Errorf("tree one past headroom routed to %q, want abort", got)
	}
	if got := pickAlgo(false, 10, 10, false); got != "subgraph" {
		t.Errorf("cyclic at equality routed to %q, want subgraph", got)
	}
	if got := pickAlgo(false, 11, 10, false); got != "abort" {
		t.Errorf("cyclic one past headroom routed to %q, want abort", got)
	}
}

// End-to-end charge-inclusivity: learn the exact row charge of a
// deterministic computation, then re-run with MaxRows equal to it
// (must succeed — the cap is inclusive) and one below it (must fail
// with the typed budget error). This pins the convention the pickers'
// strict comparisons assume.
func TestBudgetBoundaryModeExactChargeComputes(t *testing.T) {
	prev := SetCacheCapacity(0)
	defer SetCacheCapacity(prev)
	rng := rand.New(rand.NewSource(99))
	g, in := randomTreeCase(rng, 3, 4)

	ctx := WithBudget(context.Background(), Budget{MaxRows: 1 << 40})
	want, err := Compute(ctx, g, in)
	if err != nil {
		t.Fatal(err)
	}
	used := budget.FromContext(ctx).Rows()
	if used == 0 {
		t.Skip("degenerate random case: nothing charged")
	}

	exact := WithBudget(context.Background(), Budget{MaxRows: used})
	got, err := Compute(exact, g, in)
	if err != nil {
		t.Fatalf("budget of exactly the charge (%d rows) failed: %v", used, err)
	}
	if !got.EqualSet(want) {
		t.Fatal("exact-budget result differs from unlimited result")
	}

	under := WithBudget(context.Background(), Budget{MaxRows: used - 1})
	if _, err := Compute(under, g, in); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("budget one under the charge returned %v, want budget error", err)
	}
}
