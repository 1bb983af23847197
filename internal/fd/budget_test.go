package fd

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"clio/internal/fault"
)

// Every D(G) algorithm must honor a row budget: the computation stops
// with ErrBudgetExceeded, and — the graceful-degradation guarantee —
// the tuples actually materialized stay within 2× of the cap, so
// resident memory is bounded by the budget, not by |D(G)|.
func TestBudgetStopsAllAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g, in := randomCyclicCase(rng, 4, 6)
	tg, tin := randomTreeCase(rng, 4, 6)

	cases := []struct {
		name string
		run  func(ctx context.Context) error
	}{
		{"FullDisjunction", func(ctx context.Context) error { _, err := FullDisjunction(ctx, g, in); return err }},
		{"FullDisjunctionNaive", func(ctx context.Context) error { _, err := FullDisjunctionNaive(ctx, g, in); return err }},
		{"FullDisjunctionOuterJoin", func(ctx context.Context) error { _, err := FullDisjunctionOuterJoin(ctx, tg, tin); return err }},
		{"Compute", func(ctx context.Context) error { _, err := Compute(ctx, g, in); return err }},
	}
	const maxRows = 3
	for _, c := range cases {
		ctx := WithBudget(context.Background(), Budget{MaxRows: maxRows})
		err := c.run(ctx)
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Errorf("%s: err = %v, want ErrBudgetExceeded", c.name, err)
			continue
		}
		var be *BudgetError
		if !errors.As(err, &be) || be.Limit != "rows" {
			t.Errorf("%s: error does not name the rows limit: %#v", c.name, err)
		}
		if rows, _ := BudgetUsed(ctx); rows > 2*maxRows {
			t.Errorf("%s: materialized %d rows, more than 2x the budget of %d", c.name, rows, maxRows)
		}
	}
}

func TestBudgetByteLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g, in := randomCyclicCase(rng, 4, 6)
	ctx := WithBudget(context.Background(), Budget{MaxBytes: 64})
	_, err := FullDisjunction(ctx, g, in)
	var be *BudgetError
	if !errors.As(err, &be) || be.Limit != "bytes" {
		t.Fatalf("want bytes budget violation, got %v", err)
	}
}

// A generous budget must not change any result.
func TestGenerousBudgetIsTransparent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g, in := randomCyclicCase(rng, 4, 4)
	free, err := Compute(context.Background(), g, in)
	if err != nil {
		t.Fatal(err)
	}
	ctx := WithBudget(context.Background(), Budget{MaxRows: 1 << 30, MaxBytes: 1 << 40})
	capped, err := Compute(ctx, g, in)
	if err != nil {
		t.Fatal(err)
	}
	if !free.EqualSet(capped) {
		t.Error("budgeted Compute returned a different D(G)")
	}
	if rows, bytes := BudgetUsed(ctx); rows == 0 || bytes == 0 {
		t.Errorf("budget accounting recorded nothing (rows=%d bytes=%d)", rows, bytes)
	}
}

// A cache hit must be charged like a computation: the answer is 413
// either way, never "OK because it happened to be cached".
func TestBudgetAppliesToCacheHits(t *testing.T) {
	prev := SetCacheCapacity(8)
	defer func() { SetCacheCapacity(prev); InvalidateCache() }()
	InvalidateCache()

	rng := rand.New(rand.NewSource(12))
	g, in := randomTreeCase(rng, 3, 6)
	warm, err := Compute(context.Background(), g, in)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Len() == 0 {
		t.Skip("degenerate random case: empty D(G)")
	}
	ctx := WithBudget(context.Background(), Budget{MaxRows: int64(warm.Len()) - 1})
	if _, err := Compute(ctx, g, in); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("cache hit ignored the budget: %v", err)
	}
}

// Injected cache faults (lookup degraded to miss, store skipped) must
// never change results — the cache is an optimization only.
func TestChaosCacheFaultsAreTransparent(t *testing.T) {
	prev := SetCacheCapacity(8)
	defer func() { SetCacheCapacity(prev); InvalidateCache() }()
	InvalidateCache()

	rng := rand.New(rand.NewSource(14))
	g, in := randomTreeCase(rng, 3, 5)
	want, err := Compute(context.Background(), g, in)
	if err != nil {
		t.Fatal(err)
	}

	fault.Enable(1)
	defer fault.Disable()
	fault.Set("fd.cache.lookup", fault.Spec{Mode: fault.ModeError})
	fault.Set("fd.cache.store", fault.Spec{Mode: fault.ModeError})
	for i := 0; i < 3; i++ {
		got, err := Compute(context.Background(), g, in)
		if err != nil {
			t.Fatal(err)
		}
		if !want.EqualSet(got) {
			t.Fatalf("round %d: cache faults changed the result", i)
		}
	}
}
