package clio_test

// testing.B benchmark families, one per experiment in EXPERIMENTS.md
// (E1..E8) plus the paper-database microbenchmarks. cmd/cliobench
// runs the same sweeps with markdown output; these integrate with
// `go test -bench`.

import (
	"context"
	"fmt"
	"testing"

	"clio/internal/core"
	"clio/internal/datagen"
	"clio/internal/discovery"
	"clio/internal/expr"
	"clio/internal/fd"
	"clio/internal/paperdb"
	"clio/internal/relation"
	"clio/internal/value"
)

// --- E1: full disjunction algorithms ---

func chainCase(n, rows int) datagen.Case {
	return datagen.Chain(datagen.ChainSpec{
		Relations: n, Rows: rows, KeySpace: rows / 2, MatchProb: 0.85, Seed: 42,
	})
}

func BenchmarkFullDisjunctionSubgraph(b *testing.B) {
	for _, n := range []int{2, 4, 6} {
		c := chainCase(n, 100)
		b.Run(fmt.Sprintf("chain%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fd.FullDisjunction(context.Background(), c.Graph, c.Instance); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFullDisjunctionOuterJoin(b *testing.B) {
	for _, n := range []int{2, 4, 6} {
		c := chainCase(n, 100)
		b.Run(fmt.Sprintf("chain%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fd.FullDisjunctionOuterJoin(context.Background(), c.Graph, c.Instance); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E2: subsumption removal ---

func subsumptionInput(rows int) *relation.Relation {
	s := relation.NewScheme("R.a", "R.b", "R.c", "R.d", "R.e", "R.f")
	r := relation.New("R", s)
	seed := uint64(1)
	next := func(n int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed>>33) % n
	}
	for i := 0; i < rows; i++ {
		vals := make([]value.Value, 6)
		for j := range vals {
			if next(3) == 0 {
				vals[j] = value.Null
			} else {
				vals[j] = value.Int(int64(next(4)))
			}
		}
		r.AddValues(vals...)
	}
	return r
}

func BenchmarkMinimumUnionNaive(b *testing.B) {
	for _, n := range []int{200, 800} {
		r := subsumptionInput(n).Distinct()
		b.Run(fmt.Sprintf("rows%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				relation.RemoveSubsumedNaive(r)
			}
		})
	}
}

func BenchmarkMinimumUnionPartitioned(b *testing.B) {
	for _, n := range []int{200, 800} {
		r := subsumptionInput(n)
		b.Run(fmt.Sprintf("rows%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				relation.RemoveSubsumed(r)
			}
		})
	}
}

// --- E3: sufficient illustration selection ---

func BenchmarkIllustrationSelect(b *testing.B) {
	for _, rows := range []int{100, 400} {
		c := chainCase(4, rows)
		c.Mapping.TargetFilters = []expr.Expr{expr.MustParse("T.vR0 IS NOT NULL")}
		dg, err := fd.Compute(context.Background(), c.Graph, c.Instance)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("rows%d", rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				full, err := core.ExamplesOn(context.Background(), c.Mapping, c.Instance, dg)
				if err != nil {
					b.Fatal(err)
				}
				core.SelectSufficient(context.Background(), c.Mapping, full)
			}
		})
	}
}

// --- E4: walk enumeration ---

func BenchmarkDataWalkPaths(b *testing.B) {
	for _, rels := range []int{10, 20} {
		k := datagen.Knowledge(datagen.KnowledgeSpec{Relations: rels, EdgesPerNode: 3, Seed: 9})
		end := fmt.Sprintf("R%d", rels-1)
		b.Run(fmt.Sprintf("rels%d", rels), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.Paths("R0", end, 3)
			}
		})
	}
}

func BenchmarkDataWalkOperator(b *testing.B) {
	in := paperdb.Instance()
	k := discovery.BuildKnowledge(context.Background(), in, true, 1)
	m := paperdb.Figure6G()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DataWalk(context.Background(), m, k, "Children", "SBPS", 3); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E5: chase lookup ---

func BenchmarkChaseIndexed(b *testing.B) {
	in := datagen.WideInstance(4, 5, 2000, 1000, 3)
	ix := discovery.BuildValueIndex(context.Background(), in)
	v := value.Int(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Occurrences(v)
	}
}

func BenchmarkChaseScan(b *testing.B) {
	in := datagen.WideInstance(4, 5, 2000, 1000, 3)
	v := value.Int(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		discovery.OccurrencesScan(in, v)
	}
}

func BenchmarkChaseOperator(b *testing.B) {
	in := paperdb.Instance()
	ix := discovery.BuildValueIndex(context.Background(), in)
	m := paperdb.Figure6G()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DataChase(context.Background(), m, ix, "Children.ID", value.String("002")); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6: mapping evaluation ---

func BenchmarkMappingEvalDG(b *testing.B) {
	for _, rows := range []int{100, 400} {
		c := chainCase(4, rows)
		c.Mapping.SourceFilters = []expr.Expr{expr.MustParse("R0.k IS NOT NULL")}
		b.Run(fmt.Sprintf("rows%d", rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.Mapping.Evaluate(c.Instance); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMappingEvalLeftJoin(b *testing.B) {
	for _, rows := range []int{100, 400} {
		c := chainCase(4, rows)
		c.Mapping.SourceFilters = []expr.Expr{expr.MustParse("R0.k IS NOT NULL")}
		b.Run(fmt.Sprintf("rows%d", rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.Mapping.EvaluateViaLeftJoins("R0", c.Instance); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E8: discovery ---

func BenchmarkDiscoveryINDs(b *testing.B) {
	for _, rels := range []int{4, 8} {
		in := datagen.WideInstance(rels, 4, 500, 126, 5)
		b.Run(fmt.Sprintf("rels%d", rels), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				discovery.DiscoverINDs(context.Background(), in, 0.95)
			}
		})
	}
}

func BenchmarkDiscoveryValueIndex(b *testing.B) {
	in := datagen.WideInstance(4, 5, 2000, 1000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		discovery.BuildValueIndex(context.Background(), in)
	}
}

// --- Paper database end-to-end ---

func BenchmarkPaperSection2Evaluate(b *testing.B) {
	in := paperdb.Instance()
	m := paperdb.Section2Mapping()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Evaluate(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPaperSufficientIllustration(b *testing.B) {
	in := paperdb.Instance()
	m := paperdb.Example315Mapping()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SufficientIllustration(context.Background(), m, in); err != nil {
			b.Fatal(err)
		}
	}
}
