package workspace

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"clio/internal/core"
	"clio/internal/datagen"
	"clio/internal/expr"
	"clio/internal/fd"
	"clio/internal/obs"
	"clio/internal/paperdb"
	"clio/internal/relation"
	"clio/internal/schema"
	"clio/internal/value"
)

// referenceView recomputes the target view without the memo: the
// union of EvaluateOn over every accepted mapping's D(G) and the active
// mapping's, each built afresh by fd.Compute, then Distinct.
func referenceView(t *testing.T, tl *Tool) *relation.Relation {
	t.Helper()
	ctx := context.Background()
	tl.mu.Lock()
	defer tl.mu.Unlock()
	ms := append([]*core.Mapping(nil), tl.accepted...)
	if act := tl.activeLocked(); act != nil {
		ms = append(ms, act.Mapping)
	}
	out := relation.New(tl.Target.Name, relation.SchemeFor(tl.Target))
	seen := map[string]bool{}
	for _, m := range ms {
		sig := m.String()
		if seen[sig] || m.Graph.NodeCount() == 0 {
			continue
		}
		seen[sig] = true
		dg, err := fd.Compute(ctx, m.Graph, tl.Instance)
		if err != nil {
			t.Fatalf("reference D(G) of %s: %v", m.Name, err)
		}
		for _, tp := range m.EvaluateOn(dg).Tuples() {
			out.Add(tp)
		}
	}
	return out.Distinct()
}

// viewRows renders a relation's tuples as display rows, in order.
func viewRows(r *relation.Relation) [][]string {
	rows := make([][]string, 0, r.Len())
	for _, tp := range r.Tuples() {
		row := make([]string, tp.Scheme().Arity())
		for i := range row {
			row[i] = tp.At(i).String()
		}
		rows = append(rows, row)
	}
	return rows
}

// memoState names what a memoized view may depend on: the active
// workspace, the accepted mappings by pointer, and the instance version.
func memoState(tl *Tool) string {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	state := fmt.Sprintf("%p %d", tl.activeLocked(), tl.Instance.Version())
	for _, m := range tl.accepted {
		state += fmt.Sprintf(" %p", m)
	}
	return state
}

// memoScenario is one source for randomized op sequences: the
// arguments each operator draws from, and a generator of source rows
// for the edited relations.
type memoScenario struct {
	name          string
	tool          func(seed int64) *Tool
	corrs         []core.Correspondence
	walks         [][2]string
	chaseCol      string
	chaseVals     []value.Value
	sourceFilters []string
	targetFilters []string
	editRels      []string
	row           func(rng *rand.Rand, rel string) []value.Value
}

func paperScenario() memoScenario {
	return memoScenario{
		name: "paperdb",
		tool: func(int64) *Tool {
			return New(context.Background(), paperdb.Instance(), paperdb.Kids(), false)
		},
		corrs: []core.Correspondence{
			core.Identity("Children.ID", schema.Col("Kids", "ID")),
			core.Identity("Children.name", schema.Col("Kids", "name")),
			core.Identity("Parents.affiliation", schema.Col("Kids", "affiliation")),
			core.Identity("Parents.address", schema.Col("Kids", "address")),
			core.Identity("PhoneDir.number", schema.Col("Kids", "contactPh")),
		},
		walks:         [][2]string{{"Children", "Parents"}, {"Children", "PhoneDir"}, {"Parents", "PhoneDir"}},
		chaseCol:      "Children.ID",
		chaseVals:     []value.Value{value.String("002"), value.String("001")},
		sourceFilters: []string{"Children.age < 9", "Parents.salary > 60000"},
		targetFilters: []string{"Kids.ID IS NOT NULL", "Kids.name <> 'Ann'"},
		editRels:      []string{"Children", "Parents", "PhoneDir"},
		row: func(rng *rand.Rand, rel string) []value.Value {
			parent := func() string { return []string{"100", "101", "102", "103", "104", "106", "107", "205"}[rng.Intn(8)] }
			switch rel {
			case "Children":
				return rowVals(fmt.Sprintf("0%02d", 10+rng.Intn(6)), fmt.Sprintf("Kid%d", rng.Intn(3)),
					fmt.Sprint(4+rng.Intn(6)), parent(), parent(), "d3")
			case "Parents":
				return rowVals(fmt.Sprint(300+rng.Intn(4)), "IBM", "5 Birch Ln", "50000")
			default:
				return rowVals(parent(), "cell", fmt.Sprintf("555-09%02d", rng.Intn(10)))
			}
		},
	}
}

func chainScenario() memoScenario {
	col := func(rel, attr string) core.Correspondence { return core.Identity(rel+".v", schema.Col("T", attr)) }
	return memoScenario{
		name: "chain",
		tool: func(seed int64) *Tool {
			c := datagen.Chain(datagen.ChainSpec{Relations: 3, Rows: 10, KeySpace: 6, MatchProb: 0.7, Seed: seed})
			return New(context.Background(), c.Instance, c.Target, false)
		},
		corrs:         []core.Correspondence{col("R0", "vR0"), col("R1", "vR1"), col("R2", "vR2")},
		walks:         [][2]string{{"R0", "R1"}, {"R0", "R2"}, {"R1", "R2"}},
		chaseCol:      "R0.k",
		chaseVals:     []value.Value{value.Int(1), value.Int(3)},
		sourceFilters: []string{"R0.v < 6", "R1.v > 2"},
		targetFilters: []string{"T.vR0 IS NOT NULL", "T.vR1 IS NULL"},
		editRels:      []string{"R0", "R1", "R2"},
		row: func(rng *rand.Rand, _ string) []value.Value {
			return []value.Value{value.Int(int64(rng.Intn(6))), value.Int(int64(100 + rng.Intn(5)))}
		},
	}
}

// randomOp applies one randomly chosen operator and names it. Failures
// are part of the sequence: a failed op must leave the view as it was.
// inserted tracks the rows the sequence added, for deletes to pick.
func randomOp(t *testing.T, rng *rand.Rand, tl *Tool, sc memoScenario, inserted map[string][][]value.Value) string {
	ctx := context.Background()
	pick := func(ws []*Workspace) int {
		if len(ws) == 0 || rng.Intn(8) == 0 {
			return 999 // no such workspace
		}
		return ws[rng.Intn(len(ws))].ID
	}
	switch rng.Intn(15) {
	case 0, 1:
		c := sc.corrs[rng.Intn(len(sc.corrs))]
		_ = tl.AddCorrespondence(ctx, c)
		return "correspondence " + c.String()
	case 2:
		w := sc.walks[rng.Intn(len(sc.walks))]
		_ = tl.Walk(ctx, w[0], w[1])
		return "walk " + w[0] + " -> " + w[1]
	case 3:
		v := sc.chaseVals[rng.Intn(len(sc.chaseVals))]
		_ = tl.Chase(ctx, sc.chaseCol, v)
		return "chase " + v.String()
	case 4:
		p := sc.sourceFilters[rng.Intn(len(sc.sourceFilters))]
		_ = tl.AddSourceFilter(ctx, expr.MustParse(p))
		return "source filter " + p
	case 5:
		p := sc.targetFilters[rng.Intn(len(sc.targetFilters))]
		_ = tl.AddTargetFilter(ctx, expr.MustParse(p))
		return "target filter " + p
	case 6:
		_ = tl.Confirm()
		return "confirm"
	case 7:
		_ = tl.Undo()
		return "undo"
	case 8:
		id := pick(tl.Workspaces())
		_ = tl.Use(id)
		return fmt.Sprintf("use %d", id)
	case 9:
		tl.Rotate()
		return "rotate"
	case 10:
		id := pick(tl.Workspaces())
		_ = tl.Delete(id)
		return fmt.Sprintf("delete workspace %d", id)
	case 11:
		tl.RankWorkspaces()
		return "rank"
	case 12, 13:
		rel := sc.editRels[rng.Intn(len(sc.editRels))]
		vals := sc.row(rng, rel)
		if err := tl.ApplyRows(ctx, rel, vals, false); err == nil {
			inserted[rel] = append(inserted[rel], vals)
		}
		return fmt.Sprintf("insert %s %v", rel, vals)
	default:
		rel := sc.editRels[rng.Intn(len(sc.editRels))]
		rows := inserted[rel]
		if len(rows) == 0 || rng.Intn(4) == 0 {
			// A row no relation holds: the delete fails and rolls back.
			vals := make([]value.Value, tl.Instance.Relation(rel).Scheme().Arity())
			for i := range vals {
				vals[i] = value.String("absent")
			}
			if err := tl.ApplyRows(ctx, rel, vals, true); err == nil {
				t.Fatalf("delete of an absent %s row succeeded", rel)
			}
			return "delete absent row of " + rel
		}
		i := rng.Intn(len(rows))
		vals := rows[i]
		if err := tl.ApplyRows(ctx, rel, vals, true); err == nil {
			inserted[rel] = append(rows[:i:i], rows[i+1:]...)
		}
		return fmt.Sprintf("delete %s %v", rel, vals)
	}
}

// After every op of a random sequence, TargetView equals the memo-free
// reference row for row, a second call returns the same relation, and
// a relation comes back only for the state it was computed under: the
// same active workspace, accepted mappings and instance version (Undo,
// Use and Rotate back to a workspace whose memo is still valid return
// it). Deleting every workspace leaves none to hold a memo: that state
// is checked against the reference only, and the next step starts
// afresh.
func TestTargetViewMemoMatchesReference(t *testing.T) {
	ctx := context.Background()
	for _, sc := range []memoScenario{paperScenario(), chainScenario()} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", sc.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				tl := sc.tool(seed)
				seen := map[*relation.Relation]string{}
				inserted := map[string][][]value.Value{}
				var trail []string
				for step := 0; step < 60; step++ {
					if tl.Active() == nil {
						if err := tl.Start("m"); err != nil {
							t.Fatal(err)
						}
						trail = append(trail, "start")
					}
					trail = append(trail, randomOp(t, rng, tl, sc, inserted))
					got, err := tl.TargetView(ctx)
					if err != nil {
						t.Fatalf("after %v: %v", trail, err)
					}
					if want := referenceView(t, tl); !reflect.DeepEqual(viewRows(got), viewRows(want)) {
						t.Fatalf("after %v:\nview %v\nreference %v", trail, viewRows(got), viewRows(want))
					}
					if tl.Active() == nil {
						continue
					}
					again, err := tl.TargetView(ctx)
					if err != nil || again != got {
						t.Fatalf("after %v: second call returned %p (%v), first %p", trail, again, err, got)
					}
					state := memoState(tl)
					if prev, ok := seen[got]; ok && prev != state {
						t.Fatalf("after %v: view computed under state %q returned under %q", trail, prev, state)
					}
					seen[got] = state
				}
			})
		}
	}
}

// Undo back to a workspace whose view is still valid returns that
// view, and a memo hit allocates nothing and charges nothing to the
// caller's budget, however tight.
func TestTargetViewMemoHits(t *testing.T) {
	if obs.Enabled() {
		defer obs.SetEnabled(true)
		obs.SetEnabled(false)
	}
	ctx := context.Background()
	tl := mappedTool(t, paperdb.Instance())
	if err := tl.Confirm(); err != nil {
		t.Fatal(err)
	}
	if err := tl.AddTargetFilter(ctx, expr.MustParse("Kids.ID IS NOT NULL")); err != nil {
		t.Fatal(err)
	}
	first, err := tl.TargetView(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := tl.AddSourceFilter(ctx, expr.MustParse("Children.age < 7")); err != nil {
		t.Fatal(err)
	}
	if filtered, err := tl.TargetView(ctx); err != nil || filtered == first {
		t.Fatalf("view after a filter: %p, %v; want a new one", filtered, err)
	}
	if err := tl.Undo(); err != nil {
		t.Fatal(err)
	}
	bctx := fd.WithBudget(ctx, fd.Budget{MaxRows: 1, MaxBytes: 1})
	var got *relation.Relation
	if allocs := testing.AllocsPerRun(50, func() { got, err = tl.TargetView(bctx) }); allocs != 0 {
		t.Errorf("memo hit allocates %.1f times per call, want 0", allocs)
	}
	if err != nil || got != first {
		t.Fatalf("memo hit under a tight budget: %p, %v; want %p", got, err, first)
	}
	if rows, bytes := fd.BudgetUsed(bctx); rows != 0 || bytes != 0 {
		t.Errorf("memo hits charged %d rows and %d bytes", rows, bytes)
	}
}
