package workspace

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"clio/internal/core"
	"clio/internal/datagen"
	"clio/internal/discovery"
	"clio/internal/fault"
	"clio/internal/fd"
	"clio/internal/obs"
	"clio/internal/paperdb"
	"clio/internal/relation"
	"clio/internal/schema"
	"clio/internal/value"
)

// rowVals parses display cells into a Children row.
func rowVals(cells ...string) []value.Value {
	vals := make([]value.Value, len(cells))
	for i, c := range cells {
		vals[i] = value.Parse(c)
	}
	return vals
}

// mappedTool builds a tool whose active mapping reads Children,
// Parents, and PhoneDir (the Section 2 walk), so row edits on Children
// exercise the delta machinery across a real join chain.
func mappedTool(t *testing.T, in *relation.Instance) *Tool {
	t.Helper()
	ctx := context.Background()
	tl := New(ctx, in, paperdb.Kids(), false)
	if err := tl.Start("kids"); err != nil {
		t.Fatal(err)
	}
	if err := tl.AddCorrespondence(ctx, core.Identity("Children.ID", schema.Col("Kids", "ID"))); err != nil {
		t.Fatal(err)
	}
	if err := tl.Walk(ctx, "Children", "PhoneDir"); err != nil {
		t.Fatal(err)
	}
	return tl
}

// Row edits are maintained continuously: after every ApplyRows the
// target view renders byte-identically to a tool whose instance had
// the same content from the start (cold rebuild), inserts after the
// first take the O(delta) path, and deletes of untracked rows are
// refused without touching anything.
func TestApplyRowsDeltaMatchesColdRebuild(t *testing.T) {
	ctx := context.Background()
	rowA := []string{"012", "Nina", "8", "100", "101", "d3"}
	rowB := []string{"013", "Omar", "9", "102", "103", "d1"}

	tl := mappedTool(t, paperdb.Instance())

	// First edit: no materialization exists yet, so the workspace's
	// D(G) seeds one and the edit delta-applies.
	nctx, notes := obs.WithNotes(ctx)
	if err := tl.ApplyRows(nctx, "Children", rowVals(rowA...), false); err != nil {
		t.Fatal(err)
	}
	if got := notes.Get("dg_maint"); got != "delta" {
		t.Errorf("first edit maintained via %q, want delta", got)
	}
	// Second edit: the materialization matches, so it delta-applies.
	nctx, notes = obs.WithNotes(ctx)
	if err := tl.ApplyRows(nctx, "Children", rowVals(rowB...), false); err != nil {
		t.Fatal(err)
	}
	if got := notes.Get("dg_maint"); got != "delta" {
		t.Errorf("second edit maintained via %q, want delta", got)
	}
	view, err := tl.TargetView(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Cold reference: both rows present from the start.
	inCold := paperdb.Instance()
	inCold.Relation("Children").AddRow(rowA...)
	inCold.Relation("Children").AddRow(rowB...)
	coldView, err := mappedTool(t, inCold).TargetView(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if view.String() != coldView.String() {
		t.Fatalf("delta-maintained view differs from cold rebuild:\n%v\nvs\n%v", view, coldView)
	}

	// Delete rowA through the delta path; the view must match a cold
	// tool that only ever saw rowB.
	nctx, notes = obs.WithNotes(ctx)
	if err := tl.ApplyRows(nctx, "Children", rowVals(rowA...), true); err != nil {
		t.Fatal(err)
	}
	if got := notes.Get("dg_maint"); got != "delta" {
		t.Errorf("delete maintained via %q, want delta", got)
	}
	view, err = tl.TargetView(ctx)
	if err != nil {
		t.Fatal(err)
	}
	inCold2 := paperdb.Instance()
	inCold2.Relation("Children").AddRow(rowB...)
	coldView2, err := mappedTool(t, inCold2).TargetView(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if view.String() != coldView2.String() {
		t.Fatalf("post-delete view differs from cold rebuild:\n%v\nvs\n%v", view, coldView2)
	}

	// Deleting the already-removed row must be refused.
	if err := tl.ApplyRows(ctx, "Children", rowVals(rowA...), true); err == nil {
		t.Fatal("delete of an absent row should fail")
	}
	// And the refusal touched nothing: the view still matches.
	view2, err := tl.TargetView(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if view2.String() != coldView2.String() {
		t.Fatal("refused delete perturbed the view")
	}
}

// A maintenance failure must roll the instance mutation back — a
// failed rows op is all-or-nothing, which is what lets journal replay
// re-execute only acknowledged work. Next edits and views behave as if
// the failed op never happened. Covered: the delta application dying
// on a budget violation, and a session's first materialization hit by
// a budget abort, a cancellation or an injected panic.
func TestChaosRowsBudgetAbortRollsBackInstance(t *testing.T) {
	t.Run("delta", testRowsDeltaBudgetAbortRollsBack)
	testRowsFirstBuildFailureRollsBack(t)
}

// testRowsDeltaBudgetAbortRollsBack kills the delta application of a
// session's second edit with a budget error.
func testRowsDeltaBudgetAbortRollsBack(t *testing.T) {
	ctx := context.Background()
	tl := mappedTool(t, paperdb.Instance())
	// Prime the materialization so the next edit takes the delta path.
	if err := tl.ApplyRows(ctx, "Children", rowVals("012", "Nina", "8", "100", "101", "d3"), false); err != nil {
		t.Fatal(err)
	}
	children := tl.Instance.Relation("Children")
	before := children.Len()
	beforeVersion := children.Version()

	fault.Enable(1)
	defer fault.Disable()
	fault.Set("fd.delta.apply", fault.Spec{Mode: fault.ModeError, Err: fd.ErrBudgetExceeded, Times: 1})

	rowB := rowVals("013", "Omar", "9", "102", "103", "d1")
	err := tl.ApplyRows(ctx, "Children", rowB, false)
	if !errors.Is(err, fd.ErrBudgetExceeded) {
		t.Fatalf("budget-dead edit returned %v, want budget error", err)
	}
	if children.Len() != before {
		t.Fatalf("failed edit left the instance mutated: %d rows, want %d", children.Len(), before)
	}
	tup := relation.NewTuple(children.Scheme(), rowB...)
	if children.IndexOf(tup) >= 0 {
		t.Fatal("rolled-back row still present in the instance")
	}
	if children.Version() == beforeVersion {
		t.Fatal("rollback should still bump the version (mutation happened and was undone)")
	}
	if tl.Active().dgm != nil {
		t.Fatal("a failed delta left its materialization in place; it may be half-applied")
	}

	// The tool recovers: the same edit succeeds once the fault is gone,
	// and the view matches a cold rebuild over the final content.
	if err := tl.ApplyRows(ctx, "Children", rowB, false); err != nil {
		t.Fatalf("edit after recovery failed: %v", err)
	}
	view, err := tl.TargetView(ctx)
	if err != nil {
		t.Fatal(err)
	}
	inCold := paperdb.Instance()
	inCold.Relation("Children").AddRow("012", "Nina", "8", "100", "101", "d3")
	inCold.Relation("Children").AddRow("013", "Omar", "9", "102", "103", "d1")
	coldView, err := mappedTool(t, inCold).TargetView(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if view.String() != coldView.String() {
		t.Fatalf("post-recovery view differs from cold rebuild:\n%v\nvs\n%v", view, coldView)
	}
}

// testRowsFirstBuildFailureRollsBack fails a session's first
// materialization (no materialization exists yet, so MaintainRows
// seeds one from the workspace's D(G) and applies the delta to it)
// with a budget abort after the seed, a cancellation, and a panic
// injected into the seed, which keeps unwinding. Each leaves the
// instance, the active workspace's D(G) and view memo, and the fd memo
// cache as they were before the edit.
func testRowsFirstBuildFailureRollsBack(t *testing.T) {
	prev := fd.SetCacheCapacity(64)
	defer fd.SetCacheCapacity(prev)
	defer fd.InvalidateCache()
	rowB := rowVals("013", "Omar", "9", "102", "103", "d1")
	cases := []struct {
		name string
		// fail runs the edit and reports a failure of the wrong kind.
		fail func(t *testing.T, tl *Tool)
	}{
		{"budget abort mid-build", func(t *testing.T, tl *Tool) {
			// A cap of D(G)'s rows: the seed charges them all, and the
			// delta's first association is refused.
			dg := int64(tl.Active().dg.Len())
			ctx := fd.WithBudget(context.Background(), fd.Budget{MaxRows: dg})
			err := tl.ApplyRows(ctx, "Children", rowB, false)
			if rows, _ := fd.BudgetUsed(ctx); !errors.Is(err, fd.ErrBudgetExceeded) || rows != dg {
				t.Fatalf("want a budget abort after the seed's %d rows, got %v with %d rows charged", dg, err, rows)
			}
		}},
		{"cancellation", func(t *testing.T, tl *Tool) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := tl.ApplyRows(ctx, "Children", rowB, false); !errors.Is(err, context.Canceled) {
				t.Fatalf("want a cancellation, got %v", err)
			}
		}},
		{"injected panic", func(t *testing.T, tl *Tool) {
			fault.Enable(1)
			defer fault.Disable()
			fault.Set("fd.materialize", fault.Spec{Mode: fault.ModePanic, Times: 1})
			defer func() {
				if p, ok := recover().(*fault.Panic); !ok {
					t.Fatalf("want an injected panic, recovered %v", p)
				}
			}()
			err := tl.ApplyRows(context.Background(), "Children", rowB, false)
			t.Fatalf("edit returned %v instead of panicking", err)
		}},
	}
	for _, c := range cases {
		t.Run("first build/"+c.name, func(t *testing.T) {
			fd.InvalidateCache()
			tl := mappedTool(t, paperdb.Instance())
			view, err := tl.TargetView(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			act := tl.Active()
			if act.dgm != nil {
				t.Fatal("fixture already has a materialization")
			}
			children := tl.Instance.Relation("Children")
			before, dg, memo, cached := children.String(), act.dg, act.view.rel, fd.CacheLen()

			c.fail(t, tl)
			if children.String() != before {
				t.Fatalf("failed first build left the instance mutated:\n%v", children)
			}
			if act.dg != dg || act.view.rel != memo || act.dgm != nil {
				t.Fatal("failed first build touched the active workspace's D(G), view memo or materialization")
			}
			if fd.CacheLen() != cached {
				t.Fatalf("failed first build changed the fd memo cache: %d entries, want %d", fd.CacheLen(), cached)
			}
			// The rollback moves the instance version, so the memo no
			// longer answers; the recomputed view must read the same.
			got, err := tl.TargetView(context.Background())
			if err != nil || got.String() != view.String() {
				t.Fatalf("view after the failed edit differs (err %v):\n%v\nwant:\n%v", err, got, view)
			}
			// The session recovers: the edit applies once the fault is gone.
			if err := tl.ApplyRows(context.Background(), "Children", rowB, false); err != nil {
				t.Fatalf("edit after recovery failed: %v", err)
			}
		})
	}
}

// copyInstance returns an instance over the same schema holding a
// copy of every relation of in.
func copyInstance(in *relation.Instance) *relation.Instance {
	out := relation.NewInstance(in.Schema)
	for _, r := range in.Relations() {
		out.MustAdd(r.Clone())
	}
	return out
}

// chaseOutcome chases v from col and returns what the chase offers,
// one "note | mapping" line per workspace, or its error; a successful
// chase is undone, so the session's workspaces are left as they were.
func chaseOutcome(t *testing.T, tl *Tool, col string, v value.Value) []string {
	t.Helper()
	if err := tl.Chase(context.Background(), col, v); err != nil {
		return []string{"error: " + err.Error()}
	}
	var out []string
	for _, w := range tl.Workspaces() {
		out = append(out, w.Note+" | "+w.Mapping.String())
	}
	if err := tl.Undo(); err != nil {
		t.Fatal(err)
	}
	return out
}

// The chase follows row edits: after every edit of a random
// insert/delete sequence — duplicate rows, NULL cells, and deletes of a
// value's last occurrence included — chasing each value of the edited
// row offers exactly the workspaces (notes and mappings) a fresh tool
// over a copy of the edited instance offers.
func TestApplyRowsChaseMatchesFreshTool(t *testing.T) {
	ctx := context.Background()
	chain := datagen.Chain(datagen.ChainSpec{Relations: 3, Rows: 12, KeySpace: 5, MatchProb: 0.7, Seed: 11})
	chainTool := func(in *relation.Instance) *Tool {
		tl := New(ctx, in, chain.Target, false)
		if err := tl.Start("chain"); err != nil {
			t.Fatal(err)
		}
		if err := tl.AddCorrespondence(ctx, chain.Mapping.Corrs[0]); err != nil {
			t.Fatal(err)
		}
		return tl
	}
	for _, tc := range []struct {
		name  string
		in    *relation.Instance
		build func(*relation.Instance) *Tool
		col   string
	}{
		{"paperdb", paperdb.Instance(), func(in *relation.Instance) *Tool { return mappedTool(t, in) }, "Children.ID"},
		{"chain", chain.Instance, chainTool, "R0.k"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tl := tc.build(tc.in)
			rng := rand.New(rand.NewSource(17))
			rels := tl.Instance.Relations()
			chases := 0
			for step := 0; step < 60; step++ {
				r := rels[rng.Intn(len(rels))]
				var cells []value.Value
				del := r.Len() > 0 && rng.Intn(2) == 0
				if del {
					src := r.At(rng.Intn(r.Len()))
					for i := 0; i < src.Scheme().Arity(); i++ {
						cells = append(cells, src.At(i))
					}
				} else {
					// A copy of an existing row (a duplicate), with some
					// cells nulled or replaced by a fresh value.
					src := r.At(rng.Intn(r.Len()))
					for i := 0; i < src.Scheme().Arity(); i++ {
						v := src.At(i)
						switch rng.Intn(4) {
						case 0:
							v = value.Null
						case 1:
							v = value.Int(int64(900 + rng.Intn(5)))
						}
						cells = append(cells, v)
					}
				}
				if err := tl.ApplyRows(ctx, r.Name, cells, del); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				fresh := tc.build(copyInstance(tl.Instance))
				for _, v := range cells {
					if v.IsNull() {
						continue
					}
					got, want := chaseOutcome(t, tl, tc.col, v), chaseOutcome(t, fresh, tc.col, v)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d: chasing %s = %v offers\n%q\na fresh tool offers\n%q", step, tc.col, v, got, want)
					}
					if len(got) > 0 && !strings.HasPrefix(got[0], "error: ") {
						chases++
					}
				}
			}
			if chases == 0 {
				t.Fatal("no chase offered a workspace; the sequence tests nothing")
			}
		})
	}
}

// A row edit reaches the chase: after inserting SBPS (777, -, -), a
// session with one correspondence offers the SBPS workspace, exactly
// as a fresh tool over the edited instance does. A rolled-back edit
// never reaches the instance the chase scans.
func TestChaseSeesRowEdits(t *testing.T) {
	ctx := context.Background()
	start := func(in *relation.Instance) *Tool {
		tl := New(ctx, in, paperdb.Kids(), false)
		if err := tl.Start("kids"); err != nil {
			t.Fatal(err)
		}
		if err := tl.AddCorrespondence(ctx, core.Identity("Children.ID", schema.Col("Kids", "ID"))); err != nil {
			t.Fatal(err)
		}
		return tl
	}
	row := rowVals("777", "-", "-")
	notes := func(tl *Tool) []string {
		var out []string
		for _, w := range tl.Workspaces() {
			out = append(out, w.Note+" | "+w.Mapping.String())
		}
		return out
	}

	tl := start(paperdb.Instance())
	// A Children edit the budget refuses is rolled back and must not
	// leave 777 behind in the instance.
	tight := fd.WithBudget(ctx, fd.Budget{MaxRows: 1})
	if err := tl.ApplyRows(tight, "Children", rowVals("777", "Kim", "4", "100", "101", "d9"), false); !errors.Is(err, fd.ErrBudgetExceeded) {
		t.Fatalf("edit under a 1-row budget returned %v, want a budget error", err)
	}
	if occ := discovery.OccurrencesScan(tl.Instance, value.Int(777)); occ != nil {
		t.Fatalf("the chase would find %v for a row that is not in the instance", occ)
	}

	if err := tl.ApplyRows(ctx, "SBPS", row, false); err != nil {
		t.Fatal(err)
	}
	if err := tl.Chase(ctx, "Children.ID", value.Int(777)); err != nil {
		t.Fatalf("chase after the insert: %v", err)
	}
	in := paperdb.Instance()
	in.Relation("SBPS").AddValues(row...)
	fresh := start(in)
	if err := fresh.Chase(ctx, "Children.ID", value.Int(777)); err != nil {
		t.Fatalf("chase on a fresh tool: %v", err)
	}
	if got, want := notes(tl), notes(fresh); len(want) != 1 || !reflect.DeepEqual(got, want) {
		t.Fatalf("edited session offers %q, fresh tool %q (want one workspace)", got, want)
	}

	// Deleting the row takes 777 out again.
	tl2 := start(paperdb.Instance())
	if err := tl2.ApplyRows(ctx, "SBPS", row, false); err != nil {
		t.Fatal(err)
	}
	if err := tl2.ApplyRows(ctx, "SBPS", row, true); err != nil {
		t.Fatal(err)
	}
	if err := tl2.Chase(ctx, "Children.ID", value.Int(777)); err == nil {
		t.Fatal("chase found 777 after its only row was deleted")
	}
}
