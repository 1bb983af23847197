package workspace

import (
	"context"
	"errors"
	"strings"
	"testing"

	"clio/internal/core"
	"clio/internal/expr"
	"clio/internal/fd"
	"clio/internal/graph"
	"clio/internal/paperdb"
	"clio/internal/relation"
	"clio/internal/schema"
	"clio/internal/value"
)

func newTool(t testing.TB) *Tool {
	t.Helper()
	return New(context.Background(), paperdb.Instance(), paperdb.Kids(), false)
}

func TestStartAndActive(t *testing.T) {
	tl := newTool(t)
	if tl.Active() != nil {
		t.Error("fresh tool should have no active workspace")
	}
	if err := tl.Start("kids"); err != nil {
		t.Fatal(err)
	}
	if tl.Active() == nil || tl.Active().Mapping.Name != "kids" {
		t.Error("Start should create an active workspace")
	}
}

func TestSection2Walkthrough(t *testing.T) {
	// Replays the Section 2 scenario end to end through the workspace
	// API.
	tl := newTool(t)
	if err := tl.Start("kids"); err != nil {
		t.Fatal(err)
	}

	// Step 1: v1, v2 — ID and name from Children.
	if err := tl.AddCorrespondence(context.Background(), core.Identity("Children.ID", schema.Col("Kids", "ID"))); err != nil {
		t.Fatal(err)
	}
	if err := tl.AddCorrespondence(context.Background(), core.Identity("Children.name", schema.Col("Kids", "name"))); err != nil {
		t.Fatal(err)
	}
	if len(tl.Workspaces()) != 1 {
		t.Fatalf("after v1,v2: %d workspaces", len(tl.Workspaces()))
	}
	view, err := tl.TargetView(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if view.Len() != 4 {
		t.Fatalf("target view = %d rows, want 4 children", view.Len())
	}

	// Step 2: v3 — affiliation; two scenarios (mid, fid).
	if err := tl.AddCorrespondence(context.Background(), core.Identity("Parents.affiliation", schema.Col("Kids", "affiliation"))); err != nil {
		t.Fatal(err)
	}
	if len(tl.Workspaces()) != 2 {
		t.Fatalf("after v3: %d workspaces, want 2 scenarios", len(tl.Workspaces()))
	}
	// Pick the father scenario (fid edge).
	picked := false
	for _, w := range tl.Workspaces() {
		if e, ok := w.Mapping.Graph.EdgeBetween("Children", "Parents"); ok &&
			strings.Contains(e.Label(), "fid") {
			if err := tl.Use(w.ID); err != nil {
				t.Fatal(err)
			}
			picked = true
		}
	}
	if !picked {
		t.Fatal("no fid scenario found")
	}
	if err := tl.Confirm(); err != nil {
		t.Fatal(err)
	}
	if len(tl.Workspaces()) != 1 || len(tl.Accepted()) != 1 {
		t.Fatal("confirm should keep one workspace and record acceptance")
	}

	// Step 3: data walk to PhoneDir; two scenarios (father's phone,
	// mother's phone via Parents2).
	if err := tl.Walk(context.Background(), "Children", "PhoneDir"); err != nil {
		t.Fatal(err)
	}
	if len(tl.Workspaces()) != 2 {
		t.Fatalf("after walk: %d workspaces", len(tl.Workspaces()))
	}
	// Choose the mother scenario: the one that introduced Parents2.
	for _, w := range tl.Workspaces() {
		if w.Mapping.Graph.HasNode("Parents2") {
			if err := tl.Use(w.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !tl.Active().Mapping.Graph.HasNode("Parents2") {
		t.Fatal("mother scenario not active")
	}
	// The walk's illustrations evolve from the previous workspace.
	inherited := 0
	for _, e := range tl.Active().Illustration.Examples {
		if e.Inherited {
			inherited++
		}
	}
	if inherited == 0 {
		t.Error("walk alternatives should inherit examples")
	}
	// v4: contact phone from the mother's PhoneDir copy.
	if err := tl.AddCorrespondence(context.Background(), core.Identity("PhoneDir.number", schema.Col("Kids", "contactPh"))); err != nil {
		t.Fatal(err)
	}
	if err := tl.Confirm(); err != nil {
		t.Fatal(err)
	}

	// Step 4: chase 002 to find SBPS.
	if err := tl.Chase(context.Background(), "Children.ID", value.String("002")); err != nil {
		t.Fatal(err)
	}
	if len(tl.Workspaces()) != 3 {
		t.Fatalf("after chase: %d workspaces, want 3 (SBPS + 2 XmasBar)", len(tl.Workspaces()))
	}
	for _, w := range tl.Workspaces() {
		if w.Mapping.Graph.HasNode("SBPS") {
			if err := tl.Use(w.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tl.AddCorrespondence(context.Background(), core.Identity("SBPS.time", schema.Col("Kids", "BusSchedule"))); err != nil {
		t.Fatal(err)
	}
	if err := tl.AddTargetFilter(context.Background(), expr.MustParse("Kids.ID IS NOT NULL")); err != nil {
		t.Fatal(err)
	}
	if err := tl.Confirm(); err != nil {
		t.Fatal(err)
	}

	// The final target view matches the Section 2 mapping (modulo the
	// address column we did not map in this walkthrough).
	final := tl.Active().Mapping
	res, err := final.Evaluate(tl.Instance)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 4 {
		t.Fatalf("final Kids = %d rows:\n%v", res.Len(), res)
	}
	for _, tp := range res.Tuples() {
		if tp.Get("Kids.ID").Equal(value.String("002")) {
			if tp.Get("Kids.contactPh").String() != "555-0102" {
				t.Errorf("Maya's phone = %v, want mother's", tp.Get("Kids.contactPh"))
			}
			if tp.Get("Kids.BusSchedule").String() != "7:30" {
				t.Errorf("Maya's bus = %v", tp.Get("Kids.BusSchedule"))
			}
		}
	}
	// And the generated SQL has the paper's shape.
	root, ok := final.RequiredRoot()
	if !ok {
		t.Fatal("no required root")
	}
	sql, err := final.ViewSQL(root)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "LEFT JOIN") {
		t.Errorf("view SQL should use left joins:\n%s", sql)
	}
}

func TestUseDeleteRotate(t *testing.T) {
	tl := newTool(t)
	_ = tl.Start("m")
	_ = tl.AddCorrespondence(context.Background(), core.Identity("Children.ID", schema.Col("Kids", "ID")))
	if err := tl.AddCorrespondence(context.Background(), core.Identity("Parents.affiliation", schema.Col("Kids", "affiliation"))); err != nil {
		t.Fatal(err)
	}
	ws := tl.Workspaces()
	if len(ws) != 2 {
		t.Fatalf("workspaces = %d", len(ws))
	}
	if err := tl.Use(ws[1].ID); err != nil {
		t.Fatal(err)
	}
	if tl.Active().ID != ws[1].ID {
		t.Error("Use failed")
	}
	tl.Rotate()
	if tl.Active().ID != ws[0].ID {
		t.Error("Rotate failed")
	}
	if err := tl.Use(999); err == nil {
		t.Error("Use unknown should fail")
	}
	if err := tl.Delete(ws[0].ID); err != nil {
		t.Fatal(err)
	}
	if len(tl.Workspaces()) != 1 || tl.Active().ID != ws[1].ID {
		t.Error("Delete should keep the other workspace active")
	}
	if err := tl.Delete(999); err == nil {
		t.Error("Delete unknown should fail")
	}
	if err := tl.Delete(ws[1].ID); err != nil {
		t.Fatal(err)
	}
	if tl.Active() != nil {
		t.Error("deleting all workspaces should clear active")
	}
	if err := tl.Confirm(); err == nil {
		t.Error("Confirm with no active should fail")
	}
}

func TestExample61TwoMappingsWithFilters(t *testing.T) {
	// Example 6.1: mother's phone when there is a mother, father's
	// phone otherwise — two accepted mappings with complementary
	// filters; the target view is their union.
	in := paperdb.Instance()
	tl := New(context.Background(), in, paperdb.Kids(), false)

	mother := core.NewMapping("viaMother", paperdb.Kids())
	mother.Graph.MustAddNode("Children", "Children")
	mother.Graph.MustAddNode("Parents", "Parents")
	mother.Graph.MustAddNode("PhoneDir", "PhoneDir")
	mother.Graph.MustAddEdge("Children", "Parents", expr.Equals("Children.mid", "Parents.ID"))
	mother.Graph.MustAddEdge("Parents", "PhoneDir", expr.Equals("Parents.ID", "PhoneDir.ID"))
	mother.Corrs = []core.Correspondence{
		core.Identity("Children.ID", schema.Col("Kids", "ID")),
		core.Identity("PhoneDir.number", schema.Col("Kids", "contactPh")),
	}
	mother.SourceFilters = []expr.Expr{expr.MustParse("Children.mid IS NOT NULL")}
	mother.TargetFilters = []expr.Expr{expr.MustParse("Kids.ID IS NOT NULL")}

	father := mother.Clone()
	father.Name = "viaFather"
	father.Graph = coreGraphWithFid()
	father.SourceFilters = []expr.Expr{expr.MustParse("Children.mid IS NULL")}

	// Accept both by driving workspaces.
	tl.workspaces = nil
	w1, err := tl.newWorkspace(context.Background(), mother, "mother", 0)
	if err != nil {
		t.Fatal(err)
	}
	tl.workspaces = []*Workspace{w1}
	tl.active = 0
	if err := tl.Confirm(); err != nil {
		t.Fatal(err)
	}
	w2, err := tl.newWorkspace(context.Background(), father, "father", 0)
	if err != nil {
		t.Fatal(err)
	}
	tl.workspaces = []*Workspace{w2}
	tl.active = 0
	if err := tl.Confirm(); err != nil {
		t.Fatal(err)
	}

	view, err := tl.TargetView(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Every child in the paper instance has a mother, so the father
	// mapping contributes nothing here; the union is the mother rows.
	if view.Len() != 4 {
		t.Fatalf("view = %d rows:\n%v", view.Len(), view)
	}
	// Now orphan Bo's mid to exercise the father branch on a modified
	// instance: rebuild with Bo motherless but fathered.
	in2 := modifiedInstance(t)
	tl2 := New(context.Background(), in2, paperdb.Kids(), false)
	tl2.accepted = []*core.Mapping{mother, father}
	view2, err := tl2.TargetView(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var bo relation.Tuple
	for _, tp := range view2.Tuples() {
		if tp.Get("Kids.ID").Equal(value.String("004")) {
			bo = tp
		}
	}
	if bo.Scheme() == nil {
		t.Fatalf("Bo missing from union view:\n%v", view2)
	}
	if bo.Get("Kids.contactPh").String() != "555-0103" {
		t.Errorf("Bo should get father's phone, got %v", bo.Get("Kids.contactPh"))
	}
}

// coreGraphWithFid builds Children—Parents(fid)—PhoneDir.
func coreGraphWithFid() *graph.QueryGraph {
	g := graph.New()
	g.MustAddNode("Children", "Children")
	g.MustAddNode("Parents", "Parents")
	g.MustAddNode("PhoneDir", "PhoneDir")
	g.MustAddEdge("Children", "Parents", expr.Equals("Children.fid", "Parents.ID"))
	g.MustAddEdge("Parents", "PhoneDir", expr.Equals("Parents.ID", "PhoneDir.ID"))
	return g
}

// modifiedInstance: like the paper instance but Bo (004) has no mother
// and father 103.
func modifiedInstance(t *testing.T) *relation.Instance {
	t.Helper()
	in := relation.NewInstance(paperdb.Schema())
	src := paperdb.Instance()
	for _, name := range src.Names() {
		r := src.Relation(name)
		if name != "Children" {
			in.MustAdd(r)
			continue
		}
		c := in.NewRelationFor("Children")
		for _, tp := range r.Tuples() {
			if tp.Get("Children.ID").Equal(value.String("004")) {
				c.AddValues(
					tp.Get("Children.ID"), tp.Get("Children.name"), tp.Get("Children.age"),
					value.Null, value.Int(103), tp.Get("Children.docid"))
			} else {
				c.Add(tp)
			}
		}
		in.MustAdd(c)
	}
	return in
}

func TestExample62SecondCorrespondenceReuse(t *testing.T) {
	// Example 6.2: a second correspondence for an already-mapped field
	// confirms the current mapping and spawns alternatives that reuse
	// the other correspondences.
	tl := newTool(t)
	_ = tl.Start("kids")
	if err := tl.AddCorrespondence(context.Background(), core.Identity("Children.ID", schema.Col("Kids", "ID"))); err != nil {
		t.Fatal(err)
	}
	if err := tl.AddCorrespondence(context.Background(), core.Identity("Children.name", schema.Col("Kids", "name"))); err != nil {
		t.Fatal(err)
	}
	// First computation of affiliation: mother's (pick the mid one).
	if err := tl.AddCorrespondence(context.Background(), core.Identity("Parents.affiliation", schema.Col("Kids", "affiliation"))); err != nil {
		t.Fatal(err)
	}
	for _, w := range tl.Workspaces() {
		if e, ok := w.Mapping.Graph.EdgeBetween("Children", "Parents"); ok && strings.Contains(e.Label(), "mid") {
			_ = tl.Use(w.ID)
		}
	}
	_ = tl.Confirm()
	// Second correspondence for the same attribute: salary-based
	// (nonsense semantically, but structurally a second computation).
	c := core.FromExpr(expr.MustParse("upper(Parents.affiliation)"), schema.Col("Kids", "affiliation"))
	if err := tl.AddCorrespondence(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	// The first mapping is accepted; the new alternatives reuse ID and
	// name correspondences.
	if len(tl.Accepted()) < 2 {
		t.Fatalf("accepted = %d, want the first affiliation mapping accepted", len(tl.Accepted()))
	}
	act := tl.Active()
	if _, ok := act.Mapping.CorrFor("ID"); !ok {
		t.Error("new alternative should reuse the ID correspondence")
	}
	if _, ok := act.Mapping.CorrFor("name"); !ok {
		t.Error("new alternative should reuse the name correspondence")
	}
	c2, ok := act.Mapping.CorrFor("affiliation")
	if !ok || !strings.Contains(c2.Expr.String(), "upper") {
		t.Errorf("new alternative should carry the new correspondence: %v", c2)
	}
}

func TestRankWorkspaces(t *testing.T) {
	tl := newTool(t)
	_ = tl.Start("m")
	_ = tl.AddCorrespondence(context.Background(), core.Identity("Children.ID", schema.Col("Kids", "ID")))
	_ = tl.AddCorrespondence(context.Background(), core.Identity("Parents.affiliation", schema.Col("Kids", "affiliation")))
	ws := tl.Workspaces()
	if len(ws) < 2 {
		t.Skip("need 2 workspaces")
	}
	// Scramble ranks and re-sort.
	ws[0].Rank, ws[1].Rank = 5, 1
	act := tl.Active()
	tl.RankWorkspaces()
	if tl.Workspaces()[0].Rank != 1 {
		t.Error("RankWorkspaces did not sort")
	}
	if tl.Active() != act {
		t.Error("active workspace should be preserved")
	}
}

func TestFilterOperators(t *testing.T) {
	tl := newTool(t)
	_ = tl.Start("m")
	_ = tl.AddCorrespondence(context.Background(), core.Identity("Children.ID", schema.Col("Kids", "ID")))
	if err := tl.AddSourceFilter(context.Background(), expr.MustParse("Children.age < 7")); err != nil {
		t.Fatal(err)
	}
	if err := tl.AddTargetFilter(context.Background(), expr.MustParse("Kids.ID IS NOT NULL")); err != nil {
		t.Fatal(err)
	}
	m := tl.Active().Mapping
	if len(m.SourceFilters) != 1 || len(m.TargetFilters) != 1 {
		t.Error("filters not applied")
	}
	view, err := tl.TargetView(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if view.Len() != 2 { // Maya (6) and Bo (5)
		t.Errorf("filtered view = %d rows, want 2:\n%v", view.Len(), view)
	}
	// Errors without an active workspace.
	tl2 := newTool(t)
	if err := tl2.AddSourceFilter(context.Background(), expr.MustParse("TRUE")); err == nil {
		t.Error("no active workspace should fail")
	}
	if err := tl2.AddTargetFilter(context.Background(), expr.MustParse("TRUE")); err == nil {
		t.Error("no active workspace should fail")
	}
	if err := tl2.Walk(context.Background(), "A", "B"); err == nil {
		t.Error("walk with no active workspace should fail")
	}
	if err := tl2.Chase(context.Background(), "A.x", value.Int(1)); err == nil {
		t.Error("chase with no active workspace should fail")
	}
	if err := tl2.AddCorrespondence(context.Background(), core.Identity("Children.ID", schema.Col("Kids", "ID"))); err == nil {
		t.Error("correspondence with no active workspace should fail")
	}
}

func TestWalkAndChaseFailures(t *testing.T) {
	tl := newTool(t)
	_ = tl.Start("m")
	_ = tl.AddCorrespondence(context.Background(), core.Identity("Children.ID", schema.Col("Kids", "ID")))
	if err := tl.Walk(context.Background(), "Children", "Nowhere"); err == nil {
		t.Error("walk to unknown relation should fail")
	}
	if err := tl.Chase(context.Background(), "Children.ID", value.String("no-such-value")); err == nil {
		t.Error("chase of absent value should fail")
	}
}

func TestCompare(t *testing.T) {
	tl := newTool(t)
	_ = tl.Start("m")
	_ = tl.AddCorrespondence(context.Background(), core.Identity("Children.ID", schema.Col("Kids", "ID")))
	if err := tl.AddCorrespondence(context.Background(), core.Identity("Parents.affiliation", schema.Col("Kids", "affiliation"))); err != nil {
		t.Fatal(err)
	}
	ws := tl.Workspaces()
	if len(ws) != 2 {
		t.Fatalf("need 2 workspaces, got %d", len(ws))
	}
	out, err := tl.Compare(context.Background(), ws[0].ID, ws[1].ID, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"structural differences", "edge", "produced only by"} {
		if !strings.Contains(out, want) {
			t.Errorf("compare output missing %q:\n%s", want, out)
		}
	}
	// Comparing a workspace with itself: identical.
	same, err := tl.Compare(context.Background(), ws[0].ID, ws[0].ID, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(same, "identical") {
		t.Errorf("self-compare should be identical:\n%s", same)
	}
	if _, err := tl.Compare(context.Background(), 999, ws[0].ID, 3); err == nil {
		t.Error("unknown workspace should fail")
	}
	if _, err := tl.Compare(context.Background(), ws[0].ID, 999, 3); err == nil {
		t.Error("unknown workspace should fail")
	}
}

func TestCoverageSummary(t *testing.T) {
	tl := newTool(t)
	_ = tl.Start("m")
	_ = tl.AddCorrespondence(context.Background(), core.Identity("Children.ID", schema.Col("Kids", "ID")))
	if err := tl.AddCorrespondence(context.Background(), core.Identity("Parents.affiliation", schema.Col("Kids", "affiliation"))); err != nil {
		t.Fatal(err)
	}
	out, err := tl.CoverageSummary(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "coverage categories") || !strings.Contains(out, "Children+Parents") {
		t.Errorf("summary wrong:\n%s", out)
	}
	empty := newTool(t)
	if _, err := empty.CoverageSummary(context.Background()); err == nil {
		t.Error("no active workspace should fail")
	}
}

func TestTargetStatus(t *testing.T) {
	tl := newTool(t)
	_ = tl.Start("m")
	_ = tl.AddCorrespondence(context.Background(), core.Identity("Children.ID", schema.Col("Kids", "ID")))
	s := tl.TargetStatus()
	if !strings.Contains(s, "ID") || !strings.Contains(s, "mapped by m") {
		t.Errorf("status wrong:\n%s", s)
	}
	if !strings.Contains(s, "UNMAPPED") {
		t.Errorf("unmapped attrs should show:\n%s", s)
	}
}

func TestUndo(t *testing.T) {
	tl := newTool(t)
	if err := tl.Undo(); err == nil {
		t.Error("fresh tool has nothing to undo")
	}
	_ = tl.Start("m")
	_ = tl.AddCorrespondence(context.Background(), core.Identity("Children.ID", schema.Col("Kids", "ID")))
	if err := tl.AddCorrespondence(context.Background(), core.Identity("Parents.affiliation", schema.Col("Kids", "affiliation"))); err != nil {
		t.Fatal(err)
	}
	if len(tl.Workspaces()) != 2 {
		t.Fatalf("want 2 scenario workspaces")
	}
	// Undo the affiliation correspondence: back to the single ID-only
	// workspace.
	if err := tl.Undo(); err != nil {
		t.Fatal(err)
	}
	if len(tl.Workspaces()) != 1 {
		t.Fatalf("after undo: %d workspaces", len(tl.Workspaces()))
	}
	if _, ok := tl.Active().Mapping.CorrFor("affiliation"); ok {
		t.Error("undo should drop the affiliation correspondence")
	}
	if _, ok := tl.Active().Mapping.CorrFor("ID"); !ok {
		t.Error("undo went too far")
	}
	// Undo a filter application.
	_ = tl.AddSourceFilter(context.Background(), expr.MustParse("Children.age < 7"))
	if len(tl.Active().Mapping.SourceFilters) != 1 {
		t.Fatal("filter not applied")
	}
	if err := tl.Undo(); err != nil {
		t.Fatal(err)
	}
	if len(tl.Active().Mapping.SourceFilters) != 0 {
		t.Error("undo should drop the filter")
	}
	// Undo a confirm.
	_ = tl.Confirm()
	if len(tl.Accepted()) != 1 {
		t.Fatal("confirm failed")
	}
	if err := tl.Undo(); err != nil {
		t.Fatal(err)
	}
	if len(tl.Accepted()) != 0 {
		t.Error("undo should retract acceptance")
	}

	// Undo after a row edit: the restored workspace must not bring back
	// a D(G) cached before the edit. Filter, insert a child, undo the
	// filter: the view must match a fresh tool's over the edited
	// instance, and a following walk (memo cache on) must build the
	// true D(G′).
	ctx := context.Background()
	prev := fd.SetCacheCapacity(8)
	defer func() { fd.SetCacheCapacity(prev); fd.InvalidateCache() }()
	tl = newTool(t)
	_ = tl.Start("m")
	if err := tl.AddCorrespondence(ctx, core.Identity("Children.ID", schema.Col("Kids", "ID"))); err != nil {
		t.Fatal(err)
	}
	if err := tl.AddSourceFilter(ctx, expr.MustParse("Children.age < 7")); err != nil {
		t.Fatal(err)
	}
	if err := tl.ApplyRows(ctx, "Children", rowVals("012", "Nina", "8", "100", "101", "d3"), false); err != nil {
		t.Fatal(err)
	}
	if err := tl.Undo(); err != nil {
		t.Fatal(err)
	}
	got, err := tl.TargetView(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fresh := New(ctx, tl.Instance, paperdb.Kids(), false)
	_ = fresh.Start("m")
	if err := fresh.AddCorrespondence(ctx, core.Identity("Children.ID", schema.Col("Kids", "ID"))); err != nil {
		t.Fatal(err)
	}
	want, err := fresh.TargetView(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() != 5 || !got.EqualSet(want) {
		t.Fatalf("view after undo has %d rows, fresh tool %d (want 5):\n%v", got.Len(), want.Len(), got)
	}
	if err := tl.Walk(ctx, "Children", "Parents"); err != nil {
		t.Fatal(err)
	}
	w := tl.Active()
	naive, err := fd.FullDisjunctionNaive(ctx, w.Mapping.Graph, tl.Instance)
	if err != nil {
		t.Fatal(err)
	}
	if !w.dg.EqualSet(naive) {
		t.Fatalf("walk after undo built a D(G) of %d rows, naive reference %d", w.dg.Len(), naive.Len())
	}
}

func TestWorkspaceDGCacheConsistency(t *testing.T) {
	// The cached D(G) carried across operators and row edits must
	// always equal a from-scratch computation.
	tl := newTool(t)
	_ = tl.Start("m")
	check := func(stage string) {
		t.Helper()
		w := tl.Active()
		if w == nil || w.Mapping.Graph.NodeCount() == 0 {
			return
		}
		if w.dg == nil {
			t.Fatalf("%s: no cached D(G)", stage)
		}
		ref, err := fd.Compute(context.Background(), w.Mapping.Graph, tl.Instance)
		if err != nil {
			t.Fatal(err)
		}
		if !w.dg.EqualSet(ref) {
			t.Fatalf("%s: cached D(G) diverged (%d vs %d rows)", stage, w.dg.Len(), ref.Len())
		}
	}
	_ = tl.AddCorrespondence(context.Background(), core.Identity("Children.ID", schema.Col("Kids", "ID")))
	check("after first correspondence")
	_ = tl.AddCorrespondence(context.Background(), core.Identity("Parents.affiliation", schema.Col("Kids", "affiliation")))
	check("after affiliation walk")
	_ = tl.Confirm()
	_ = tl.Walk(context.Background(), "Children", "PhoneDir")
	check("after phone walk")
	for _, w := range tl.Workspaces() {
		if w.Mapping.Graph.HasNode("Parents2") {
			_ = tl.Use(w.ID)
		}
	}
	check("after selecting mother scenario")
	_ = tl.Chase(context.Background(), "Children.ID", value.String("002"))
	check("after chase")
	_ = tl.AddSourceFilter(context.Background(), expr.MustParse("Children.age < 9"))
	check("after filter")
}

func TestRotateSingleAndMaxWalkLen(t *testing.T) {
	tl := newTool(t)
	_ = tl.Start("m")
	act := tl.Active()
	tl.Rotate() // single workspace: no-op
	if tl.Active() != act {
		t.Error("rotate with one workspace should be a no-op")
	}
	// A walk length bound of 1 cannot reach PhoneDir (two hops away).
	_ = tl.AddCorrespondence(context.Background(), core.Identity("Children.ID", schema.Col("Kids", "ID")))
	tl.MaxWalkLen = 1
	if err := tl.Walk(context.Background(), "Children", "PhoneDir"); err == nil {
		t.Error("bounded walk should find no path")
	}
	tl.MaxWalkLen = 3
	if err := tl.Walk(context.Background(), "Children", "PhoneDir"); err != nil {
		t.Errorf("walk at bound 3 should work: %v", err)
	}
}

// A walk or correspondence refused by the request budget after some of
// its alternatives were built must not use up workspace IDs: the
// failed op is not journaled, so replay would number every later
// workspace differently from the live session. Every cap from 1 to 60
// rows is tried; each refused op must leave NextID where it was, and
// some refusal must come after an alternative was built.
func TestBudgetRefusedAlternativesKeepNextID(t *testing.T) {
	corr := func(src, attr string) func(context.Context, *Tool) error {
		return func(ctx context.Context, tl *Tool) error {
			return tl.AddCorrespondence(ctx, core.Identity(src, schema.Col("Kids", attr)))
		}
	}
	walk := func(ctx context.Context, tl *Tool) error { return tl.Walk(ctx, "Children", "PhoneDir") }
	cases := []struct {
		name   string
		prefix []func(context.Context, *Tool) error
		op     func(context.Context, *Tool) error
	}{
		{"corr", []func(context.Context, *Tool) error{corr("Children.ID", "ID"), corr("Children.name", "name")},
			corr("Parents.affiliation", "affiliation")},
		{"walk", []func(context.Context, *Tool) error{corr("Children.ID", "ID"), corr("Children.name", "name"),
			corr("Parents.affiliation", "affiliation")}, walk},
	}
	for _, c := range cases {
		lateRefusals := 0
		for cap := int64(1); cap <= 60; cap++ {
			tl := newTool(t)
			if err := tl.Start("kids"); err != nil {
				t.Fatal(err)
			}
			for _, step := range c.prefix {
				if err := step(context.Background(), tl); err != nil {
					t.Fatal(err)
				}
			}
			before, err := tl.SnapshotState()
			if err != nil {
				t.Fatal(err)
			}
			ctx := fd.WithBudget(context.Background(), fd.Budget{MaxRows: cap})
			if err := c.op(ctx, tl); err == nil {
				continue
			} else if !errors.Is(err, fd.ErrBudgetExceeded) {
				t.Fatalf("%s under %d rows: %v, want a budget refusal or success", c.name, cap, err)
			}
			if rows, _ := fd.BudgetUsed(ctx); rows > 0 {
				lateRefusals++
			}
			after, err := tl.SnapshotState()
			if err != nil {
				t.Fatal(err)
			}
			if after.NextID != before.NextID {
				t.Fatalf("%s refused under %d rows moved NextID from %d to %d", c.name, cap, before.NextID, after.NextID)
			}
		}
		if lateRefusals == 0 {
			t.Fatalf("%s: no refusal came after any work was charged — the test is vacuous", c.name)
		}
	}
}
