package core_test

import (
	"context"
	"testing"

	"clio/internal/core"
	"clio/internal/datagen"
	"clio/internal/expr"
)

// EvaluateOn and ExamplesOn compile the mapping once per pass, so their
// allocations per D(G) tuple are bounded by a constant (the target
// tuple's values, the example slice and output growth) instead of a
// target scheme per tuple.
func TestMappingKernelAllocsPerTupleBounded(t *testing.T) {
	c := datagen.Chain(datagen.ChainSpec{Relations: 3, Rows: 2000, KeySpace: 1500, MatchProb: 0.8, Seed: 7})
	m := c.Mapping
	m.SourceFilters = []expr.Expr{expr.MustParse("R0.v IS NOT NULL OR R1.v >= 0")}
	m.TargetFilters = []expr.Expr{expr.MustParse("T.vR0 IS NOT NULL OR T.vR2 IS NOT NULL")}
	ctx := context.Background()
	dg, err := m.DG(ctx, c.Instance)
	if err != nil {
		t.Fatal(err)
	}
	n := float64(dg.Len())
	if n < 2000 {
		t.Fatalf("D(G) has %v tuples; the test needs a large pass", n)
	}
	eval := testing.AllocsPerRun(3, func() { m.EvaluateOn(dg) })
	if eval > 2*n {
		t.Errorf("EvaluateOn: %.0f allocations for %.0f associations (%.2f per tuple), want at most 2 per tuple", eval, n, eval/n)
	}
	examples := testing.AllocsPerRun(3, func() {
		if _, err := core.ExamplesOn(ctx, m, c.Instance, dg); err != nil {
			t.Fatal(err)
		}
	})
	if examples > 2*n {
		t.Errorf("ExamplesOn: %.0f allocations for %.0f associations (%.2f per tuple), want at most 2 per tuple", examples, n, examples/n)
	}
}
