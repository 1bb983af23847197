package paperdb

import (
	"context"
	"strings"
	"testing"

	"clio/internal/core"
	"clio/internal/discovery"
	"clio/internal/expr"
	"clio/internal/fd"
	"clio/internal/relation"
	"clio/internal/schema"
	"clio/internal/value"
)

// --- F1: the reconstructed Figure 1 instance ---

func TestSchemaValidates(t *testing.T) {
	if err := Schema().Validate(); err != nil {
		t.Fatal(err)
	}
}

// rowsWith returns the positions of r's tuples whose attr equals v.
func rowsWith(r *relation.Relation, attr string, v value.Value) []int {
	var out []int
	for i, tp := range r.Tuples() {
		if tp.Get(attr).Equal(v) {
			out = append(out, i)
		}
	}
	return out
}

func TestInstanceIntegrity(t *testing.T) {
	in := Instance()
	// Declared FKs hold on the data.
	for _, fk := range in.Schema.ForeignKs {
		from := in.Relation(fk.FromRelation)
		to := in.Relation(fk.ToRelation)
		toAttr := fk.ToRelation + "." + fk.ToAttrs[0]
		fromPos := from.Scheme().Positions(fk.FromRelation + "." + fk.FromAttrs[0])
		for _, tp := range from.Tuples() {
			v := tp.At(fromPos[0])
			if v.IsNull() {
				continue
			}
			if len(rowsWith(to, toAttr, v)) == 0 {
				t.Errorf("FK %s violated by %v", fk.Name, tp)
			}
		}
	}
	// No all-null tuples (the paper's standing assumption).
	for _, r := range in.Relations() {
		for _, tp := range r.Tuples() {
			if tp.IsAllNull() {
				t.Errorf("all-null tuple in %s", r.Name)
			}
		}
	}
	// Declared keys hold.
	for _, k := range in.Schema.Keys {
		r := in.Relation(k.Relation)
		st := discovery.ProfileColumn(r, k.Relation+"."+k.Attrs[0])
		if !st.Unique {
			t.Errorf("key %v violated", k)
		}
	}
}

func TestProseFacts(t *testing.T) {
	in := Instance()
	c := in.Relation("Children")
	// Maya is child 002.
	var maya relation.Tuple
	found := false
	for _, tp := range c.Tuples() {
		if tp.Get("Children.ID").Equal(value.String("002")) {
			maya, found = tp, true
		}
	}
	if !found || maya.Get("Children.name").Str() != "Maya" {
		t.Fatal("child 002 should be Maya")
	}
	// Focus children 001, 002, 004, 009 all exist.
	for _, id := range []string{"001", "002", "004", "009"} {
		hit := false
		for _, tp := range c.Tuples() {
			if tp.Get("Children.ID").Equal(value.String(id)) {
				hit = true
			}
		}
		if !hit {
			t.Errorf("focus child %s missing", id)
		}
	}
	// Parent 205 exists, has a phone, and no children reference it.
	ph := in.Relation("PhoneDir")
	if len(rowsWith(ph, "PhoneDir.ID", value.Int(205))) != 1 {
		t.Error("parent 205 should have a phone")
	}
	for _, tp := range c.Tuples() {
		if tp.Get("Children.mid").Equal(value.Int(205)) || tp.Get("Children.fid").Equal(value.Int(205)) {
			t.Error("parent 205 should be childless")
		}
	}
	// Every mother has a phone (kills coverage CP), every child has a
	// mother (kills coverage C).
	for _, tp := range c.Tuples() {
		mid := tp.Get("Children.mid")
		if mid.IsNull() {
			t.Errorf("child %v has no mother", tp)
			continue
		}
		if len(rowsWith(ph, "PhoneDir.ID", mid)) == 0 {
			t.Errorf("mother %v has no phone", mid)
		}
	}
	// The value 002 occurs in exactly one SBPS attribute and two
	// XmasBar attributes (Figure 5).
	ix := discovery.BuildValueIndex(context.Background(), in)
	perRel := map[string]int{}
	for _, occ := range ix.Occurrences(value.String("002")) {
		perRel[occ.Column.Relation]++
	}
	if perRel["SBPS"] != 1 {
		t.Errorf("002 occurs in %d SBPS attributes, want 1", perRel["SBPS"])
	}
	if perRel["XmasBar"] != 2 {
		t.Errorf("002 occurs in %d XmasBar attributes, want 2", perRel["XmasBar"])
	}
	if perRel["Parents"] != 0 || perRel["PhoneDir"] != 0 {
		t.Error("002 must not collide with parent IDs")
	}
	// Maya's mother and father have different affiliations (Figure 3).
	p := in.Relation("Parents")
	mother := p.At(rowsWith(p, "Parents.ID", maya.Get("Children.mid"))[0])
	father := p.At(rowsWith(p, "Parents.ID", maya.Get("Children.fid"))[0])
	if mother.Get("Parents.affiliation").Equal(father.Get("Parents.affiliation")) {
		t.Error("Maya's parents should have distinct affiliations")
	}
	if mother.Get("Parents.affiliation").Str() != "Acta" || father.Get("Parents.affiliation").Str() != "IBM" {
		t.Error("scenario affiliations should be Acta (mother) and IBM (father)")
	}
}

// --- F8: the D(G) of Figure 8 ---

func TestFigure8FullDisjunction(t *testing.T) {
	in := Instance()
	m := Figure6G()
	if err := m.Validate(in); err != nil {
		t.Fatal(err)
	}
	d, err := m.DG(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	tags := map[string]int{}
	for _, tp := range d.Tuples() {
		cov, err := fd.Coverage(tp, m.Graph, in)
		if err != nil {
			t.Fatal(err)
		}
		tags[fd.Tag(cov, Abbrev())]++
	}
	want := map[string]int{"CPPh": 4, "PPh": 3, "P": 1}
	if len(tags) != len(want) {
		t.Fatalf("coverage tags = %v, want %v", tags, want)
	}
	for k, n := range want {
		if tags[k] != n {
			t.Errorf("tag %s = %d, want %d", k, tags[k], n)
		}
	}
	if d.Len() != 8 {
		t.Errorf("|D(G)| = %d, want 8", d.Len())
	}
	// Parent 205's association is the PPh row of Figure 8.
	found := false
	for _, tp := range d.Tuples() {
		if tp.Get("Parents.ID").Equal(value.Int(205)) && tp.Get("Children.ID").IsNull() {
			found = true
		}
	}
	if !found {
		t.Error("parent 205's PPh association missing from D(G)")
	}
}

// --- F13: Examples 3.10 and 3.12 ---

func TestExample310MinimumUnion(t *testing.T) {
	in := Instance()
	g := Figure6G().Graph
	r1, err := fd.FullAssociations(context.Background(), g, in, []string{"Children", "Parents"})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := fd.FullAssociations(context.Background(), g, in, []string{"Children", "Parents", "PhoneDir"})
	if err != nil {
		t.Fatal(err)
	}
	// Every mother has a phone, so R1 ⊕ R2 = R2 (Example 3.10).
	mu := relation.MinimumUnion("M", r1, r2)
	if !mu.EqualSet(r2) {
		t.Errorf("R1 ⊕ R2 != R2:\n%v\nvs\n%v", mu, r2)
	}
}

func TestExample312CategoryDecomposition(t *testing.T) {
	// D(G) must equal the minimum union of F(J) over all induced
	// connected subgraphs (Definition 3.11 / Example 3.12).
	in := Instance()
	g := Figure6G().Graph
	s, err := fd.Scheme(g, in)
	if err != nil {
		t.Fatal(err)
	}
	var parts []*relation.Relation
	for _, sub := range g.ConnectedSubsets() {
		f, err := fd.FullAssociations(context.Background(), g, in, sub)
		if err != nil {
			t.Fatal(err)
		}
		padded := relation.New("", s)
		for _, tp := range f.Tuples() {
			padded.Add(tp.PadTo(s))
		}
		parts = append(parts, padded)
	}
	manual := relation.MinimumUnionAll("D(G)", parts...)
	d, err := fd.Compute(context.Background(), g, in)
	if err != nil {
		t.Fatal(err)
	}
	if !manual.EqualSet(d) {
		t.Errorf("manual decomposition disagrees with fd.Compute")
	}
}

// --- F3: the Figure 3 affiliation scenarios ---

func TestFigure3Scenarios(t *testing.T) {
	in := Instance()
	k := Knowledge()
	m := core.NewMapping("start", Kids())
	m.Graph.MustAddNode("Children", "Children")
	m.Corrs = []core.Correspondence{
		core.Identity("Children.ID", mustCol("Kids.ID")),
		core.Identity("Children.name", mustCol("Kids.name")),
	}
	alts, err := core.AddCorrespondence(context.Background(), m, k, core.Identity("Parents.affiliation", mustCol("Kids.affiliation")), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(alts) != 2 {
		t.Fatalf("alternatives = %d, want 2 (mid and fid)", len(alts))
	}
	// Each alternative gives Maya a different affiliation.
	affs := map[string]bool{}
	for _, alt := range alts {
		if err := alt.Validate(in); err != nil {
			t.Fatal(err)
		}
		res, err := alt.Evaluate(in)
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range res.Tuples() {
			if tp.Get("Kids.ID").Equal(value.String("002")) {
				affs[tp.Get("Kids.affiliation").String()] = true
			}
		}
	}
	if !affs["Acta"] || !affs["IBM"] {
		t.Errorf("scenario affiliations for Maya = %v, want Acta and IBM", affs)
	}
}

func mustCol(s string) schema.ColumnRef {
	ref, err := schema.ParseColumnRef(s)
	if err != nil {
		panic(err)
	}
	return ref
}

// --- F4/F10: the Figure 4 / Figure 11 data walk ---

func TestFigure4DataWalk(t *testing.T) {
	in := Instance()
	k := Knowledge()
	// G1: Children—Parents via fid (the user chose scenario 1 for
	// affiliation).
	m := core.NewMapping("g1", Kids())
	m.Graph.MustAddNode("Children", "Children")
	m.Graph.MustAddNode("Parents", "Parents")
	m.Graph.MustAddEdge("Children", "Parents", expr.Equals("Children.fid", "Parents.ID"))
	m.Corrs = []core.Correspondence{
		core.Identity("Children.ID", mustCol("Kids.ID")),
		core.Identity("Children.name", mustCol("Kids.name")),
		core.Identity("Parents.affiliation", mustCol("Kids.affiliation")),
	}

	opts, err := core.DataWalk(context.Background(), m, k, "Children", "PhoneDir", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(opts) != 2 {
		t.Fatalf("walk options = %d, want 2 (father's and mother's phone)", len(opts))
	}
	// One option reuses Parents (fid path), the other introduces
	// Parents2 (mid path) — Figure 11's G3 and G2.
	var viaFather, viaMother *core.Mapping
	for _, o := range opts {
		if o.Mapping.Graph.HasNode("Parents2") {
			if o.Copies != 1 {
				t.Errorf("mother path should introduce 1 copy, got %d", o.Copies)
			}
			viaMother = o.Mapping
		} else {
			if o.Copies != 0 {
				t.Errorf("father path should introduce no copies, got %d", o.Copies)
			}
			viaFather = o.Mapping
		}
	}
	if viaFather == nil || viaMother == nil {
		t.Fatal("expected one father-path and one mother-path option")
	}
	// Attach the phone correspondence and compare Maya's phone.
	phoneOf := func(m *core.Mapping, node string) string {
		t.Helper()
		mm, err := m.WithCorrespondence(core.Identity(node+".number", mustCol("Kids.contactPh")))
		if err != nil {
			t.Fatal(err)
		}
		if err := mm.Validate(in); err != nil {
			t.Fatal(err)
		}
		res, err := mm.Evaluate(in)
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range res.Tuples() {
			if tp.Get("Kids.ID").Equal(value.String("002")) {
				return tp.Get("Kids.contactPh").String()
			}
		}
		return ""
	}
	if got := phoneOf(viaFather, "PhoneDir"); got != "555-0103" {
		t.Errorf("father's phone = %q, want 555-0103", got)
	}
	if got := phoneOf(viaMother, "PhoneDir"); got != "555-0102" {
		t.Errorf("mother's phone = %q, want 555-0102", got)
	}
}

// --- F5/F11: the Figure 5 / Figure 12 data chase ---

func TestFigure5DataChase(t *testing.T) {
	in := Instance()
	ix := discovery.BuildValueIndex(context.Background(), in)
	m := Figure6G()
	opts, err := core.DataChase(context.Background(), m, ix, "Children.ID", value.String("002"))
	if err != nil {
		t.Fatal(err)
	}
	// 002 occurs in one attribute of SBPS and two of XmasBar; Children
	// itself is referenced by the mapping, so exactly 3 options.
	if len(opts) != 3 {
		t.Fatalf("chase options = %d, want 3: %v", len(opts), opts)
	}
	byRel := map[string][]string{}
	for _, o := range opts {
		byRel[o.To.Relation] = append(byRel[o.To.Relation], o.To.Attr)
		if !o.Mapping.Graph.HasNode(o.To.Relation) {
			t.Errorf("chase option did not add node %s", o.To.Relation)
		}
		if err := o.Mapping.Validate(in); err != nil {
			t.Errorf("chase mapping invalid: %v", err)
		}
	}
	if len(byRel["SBPS"]) != 1 || byRel["SBPS"][0] != "ID" {
		t.Errorf("SBPS chase = %v", byRel["SBPS"])
	}
	if len(byRel["XmasBar"]) != 2 {
		t.Errorf("XmasBar chase = %v", byRel["XmasBar"])
	}
	// The user selects the SBPS option (scenario 1 of Figure 5) and
	// completes the mapping with v5: SBPS.time → Kids.BusSchedule.
	for _, o := range opts {
		if o.To.Relation != "SBPS" {
			continue
		}
		mm, err := o.Mapping.WithCorrespondence(core.Identity("SBPS.time", mustCol("Kids.BusSchedule")))
		if err != nil {
			t.Fatal(err)
		}
		res, err := mm.Evaluate(in)
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range res.Tuples() {
			if tp.Get("Kids.ID").Equal(value.String("002")) && tp.Get("Kids.BusSchedule").String() != "7:30" {
				t.Errorf("Maya's bus schedule = %v, want 7:30", tp.Get("Kids.BusSchedule"))
			}
		}
	}
}

// --- F9: the Figure 9 sufficient illustration and Example 4.3/4.8 ---

func TestExample43Categories(t *testing.T) {
	in := Instance()
	m := Example315Mapping()
	if err := m.Validate(in); err != nil {
		t.Fatal(err)
	}
	full, err := core.AllExamples(context.Background(), m, in)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, e := range full.Examples {
		counts[fd.Tag(e.Coverage, Abbrev())]++
	}
	// Present categories.
	for tag, n := range map[string]int{"CPPhS": 3, "CPPh": 1, "PPh": 3, "P": 1, "S": 1} {
		if counts[tag] != n {
			t.Errorf("category %s = %d, want %d (all: %v)", tag, counts[tag], n, counts)
		}
	}
	// Absent categories (Example 4.3): C, CP, CPS, and also CS and Ph.
	for _, tag := range []string{"C", "CP", "CPS", "CS", "Ph"} {
		if counts[tag] != 0 {
			t.Errorf("category %s should be empty, found %d", tag, counts[tag])
		}
	}
}

func TestFigure9SufficientIllustration(t *testing.T) {
	in := Instance()
	m := Example315Mapping()
	il, err := core.SufficientIllustration(context.Background(), m, in)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := il.IsSufficient(in)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		missing, _ := il.MissingRequirements(in)
		t.Fatalf("illustration not sufficient; missing %v", missing)
	}
	// It contains positives (Maya, Bo: age<7 with full coverage) and
	// negatives (Ann: age 9; the PPh/P/S rows with null Kids.ID).
	if len(il.Positives()) == 0 || len(il.Negatives()) == 0 {
		t.Fatalf("expected both polarities: %v", il)
	}
	// The greedy selection is much smaller than the full example set.
	full, _ := core.AllExamples(context.Background(), m, in)
	if len(il.Examples) >= len(full.Examples) {
		t.Errorf("sufficient illustration should be smaller than all examples (%d vs %d)",
			len(il.Examples), len(full.Examples))
	}
}

func TestExample43RemovalClaims(t *testing.T) {
	in := Instance()
	m := Example315Mapping()
	full, err := core.AllExamples(context.Background(), m, in)
	if err != nil {
		t.Fatal(err)
	}
	without := func(pred func(core.Example) bool) core.Illustration {
		out := core.Illustration{Mapping: m}
		for _, e := range full.Examples {
			if !pred(e) {
				out.Examples = append(out.Examples, e)
			}
		}
		return out
	}
	// Removing ONE CPPhS example keeps sufficiency (two remain).
	removedOne := false
	il := core.Illustration{Mapping: m}
	for _, e := range full.Examples {
		if !removedOne && fd.Tag(e.Coverage, Abbrev()) == "CPPhS" && e.Positive {
			removedOne = true
			continue
		}
		il.Examples = append(il.Examples, e)
	}
	if ok, _ := il.IsSufficient(in); !ok {
		t.Error("removing one CPPhS example should keep sufficiency")
	}
	// Removing ALL PPh examples breaks sufficiency of the query graph.
	il2 := without(func(e core.Example) bool { return fd.Tag(e.Coverage, Abbrev()) == "PPh" })
	if ok, _ := il2.IsSufficient(in); ok {
		t.Error("removing all PPh examples should break sufficiency")
	}
}

func TestExample48Focus(t *testing.T) {
	in := Instance()
	m := Example315Mapping()
	// Focus tuples: the four children, over the Children node scheme.
	cs, err := in.Aliased("Children", "Children")
	if err != nil {
		t.Fatal(err)
	}
	var focus []relation.Tuple
	for _, tp := range cs.Tuples() {
		focus = append(focus, tp)
	}
	il, err := core.Focus(context.Background(), m, in, "Children", focus)
	if err != nil {
		t.Fatal(err)
	}
	// Every association involving a focus child is included: the four
	// child associations (3 CPPhS + 1 CPPh).
	if len(il.Examples) != 4 {
		t.Fatalf("focussed examples = %d, want 4:\n%v", len(il.Examples), il)
	}
	ok, err := il.IsFocussedOn(in, "Children", focus)
	if err != nil || !ok {
		t.Errorf("IsFocussedOn = %v, %v", ok, err)
	}
	// The focussed illustration excludes parent 205's association,
	// matching Example 4.8's observation.
	for _, e := range il.Examples {
		if e.Assoc.Get("Parents.ID").Equal(value.Int(205)) {
			t.Error("focussed illustration should not include parent 205")
		}
	}
	// Dropping one focus example breaks the focus property.
	il.Examples = il.Examples[1:]
	if ok, _ := il.IsFocussedOn(in, "Children", focus); ok {
		t.Error("partial illustration should not be focussed")
	}
	// Focusing on a relation outside the graph errors.
	if _, err := core.Focus(context.Background(), m, in, "XmasBar", focus); err == nil {
		t.Error("focus on non-graph relation should error")
	}
	// Merging the sufficient illustration with the focus keeps both
	// properties.
	suff, err := core.SufficientIllustration(context.Background(), m, in)
	if err != nil {
		t.Fatal(err)
	}
	focusIl, _ := core.Focus(context.Background(), m, in, "Children", focus)
	merged := focusIl.Merge(suff)
	if ok, _ := merged.IsSufficient(in); !ok {
		t.Error("merged illustration should stay sufficient")
	}
	if ok, _ := merged.IsFocussedOn(in, "Children", focus); !ok {
		t.Error("merged illustration should stay focussed")
	}
}

// --- F12: the Section 2 SQL and its refinement ---

func TestSection2Mapping(t *testing.T) {
	in := Instance()
	m := Section2Mapping()
	if err := m.Validate(in); err != nil {
		t.Fatal(err)
	}
	res, err := m.Evaluate(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 4 {
		t.Fatalf("Kids = %d rows, want 4:\n%v", res.Len(), res)
	}
	row := map[string]relation.Tuple{}
	for _, tp := range res.Tuples() {
		row[tp.Get("Kids.ID").String()] = tp
	}
	maya := row["002"]
	if maya.Get("Kids.affiliation").String() != "IBM" { // father's
		t.Errorf("Maya affiliation = %v", maya.Get("Kids.affiliation"))
	}
	if maya.Get("Kids.contactPh").String() != "555-0102" { // mother's
		t.Errorf("Maya contactPh = %v", maya.Get("Kids.contactPh"))
	}
	if maya.Get("Kids.BusSchedule").String() != "7:30" {
		t.Errorf("Maya BusSchedule = %v", maya.Get("Kids.BusSchedule"))
	}
	bo := row["004"]
	if !bo.Get("Kids.affiliation").IsNull() || !bo.Get("Kids.address").IsNull() {
		t.Errorf("Bo has no father; affiliation/address should be null: %v", bo)
	}
	if bo.Get("Kids.contactPh").String() != "555-0104" {
		t.Errorf("Bo contactPh = %v", bo.Get("Kids.contactPh"))
	}
	zoe := row["009"]
	if !zoe.Get("Kids.BusSchedule").IsNull() {
		t.Errorf("Zoe rides no bus: %v", zoe)
	}
	if zoe.Get("Kids.affiliation").String() != "HP" {
		t.Errorf("Zoe affiliation = %v", zoe.Get("Kids.affiliation"))
	}
}

func TestSection2SQL(t *testing.T) {
	m := Section2Mapping()
	root, ok := m.RequiredRoot()
	if !ok || root != "Children" {
		t.Fatalf("RequiredRoot = %q, %v", root, ok)
	}
	sql, err := m.ViewSQL(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"CREATE VIEW Kids AS",
		"Children.ID AS ID",
		"FROM Children",
		"LEFT JOIN Parents ON Children.fid = Parents.ID",
		"LEFT JOIN Parents AS Parents2 ON Children.mid = Parents2.ID",
		"LEFT JOIN PhoneDir ON Parents2.ID = PhoneDir.ID",
		"LEFT JOIN SBPS ON Children.ID = SBPS.ID",
		"WHERE Children.ID IS NOT NULL",
	} {
		if !strings.Contains(sql, want) {
			t.Errorf("view SQL missing %q:\n%s", want, sql)
		}
	}
	canon := m.CanonicalSQL()
	for _, want := range []string{"FROM D(G)", "WHERE ID IS NOT NULL", "SBPS.time AS BusSchedule"} {
		if !strings.Contains(canon, want) {
			t.Errorf("canonical SQL missing %q:\n%s", want, canon)
		}
	}
}

func TestSection2LeftJoinEquivalence(t *testing.T) {
	// The paper's claim: with the Kids.ID not-null constraint, the
	// D(G)-based mapping query equals the left-outer-join view.
	in := Instance()
	m := Section2Mapping()
	a, err := m.Evaluate(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.EvaluateViaLeftJoins("Children", in)
	if err != nil {
		t.Fatal(err)
	}
	if !a.EqualSet(b) {
		t.Errorf("mapping vs left-join view mismatch:\n%v\nvs\n%v", a.Sorted(), b.Sorted())
	}
}

func TestSection2InnerJoinRefinement(t *testing.T) {
	// "if the user is interested only in children who have a bus
	// schedule ... Clio would then change this left outer join to an
	// inner join" — expressed as the target filter BusSchedule <> null.
	in := Instance()
	m := Section2Mapping().WithTargetFilter(expr.MustParse("Kids.BusSchedule IS NOT NULL"))
	res, err := m.Evaluate(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("refined Kids = %d rows, want 3 (Zoe drops out):\n%v", res.Len(), res)
	}
	for _, tp := range res.Tuples() {
		if tp.Get("Kids.ID").Equal(value.String("009")) {
			t.Error("Zoe should be filtered out")
		}
	}
}

// --- Evolution across the Section 2 steps ---

func TestContinuousEvolutionAcrossWalk(t *testing.T) {
	in := Instance()
	k := Knowledge()
	// Start: Children—Parents via fid.
	m := core.NewMapping("g1", Kids())
	m.Graph.MustAddNode("Children", "Children")
	m.Graph.MustAddNode("Parents", "Parents")
	m.Graph.MustAddEdge("Children", "Parents", expr.Equals("Children.fid", "Parents.ID"))
	m.Corrs = []core.Correspondence{
		core.Identity("Children.ID", mustCol("Kids.ID")),
		core.Identity("Parents.affiliation", mustCol("Kids.affiliation")),
	}
	oldIll, err := core.SufficientIllustration(context.Background(), m, in)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := core.DataWalk(context.Background(), m, k, "Children", "PhoneDir", 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range opts {
		ev, err := core.Evolve(context.Background(), oldIll, o.Mapping, in)
		if err != nil {
			t.Fatal(err)
		}
		if ev.ContinuityRatio() != 1 {
			t.Errorf("continuity ratio = %v, want 1 (every old example extends)", ev.ContinuityRatio())
		}
		if ok, _ := ev.Illustration.IsSufficient(in); !ok {
			t.Error("evolved illustration should be sufficient")
		}
		inherited := 0
		for _, e := range ev.Examples {
			if e.Inherited {
				inherited++
			}
		}
		if inherited == 0 {
			t.Error("evolution should mark inherited examples")
		}
	}
}

func TestKnowledgeReachability(t *testing.T) {
	k := Knowledge()
	// Declared knowledge reaches PhoneDir but not SBPS/XmasBar.
	if len(k.Paths("Children", "PhoneDir", 3)) == 0 {
		t.Error("PhoneDir should be walkable")
	}
	if len(k.Paths("Children", "SBPS", 3)) != 0 {
		t.Error("SBPS should not be walkable from declared knowledge")
	}
	// Mined knowledge also reaches SBPS and XmasBar.
	mk := MinedKnowledge()
	if len(mk.Paths("Children", "SBPS", 3)) == 0 {
		t.Error("SBPS should be walkable after mining")
	}
	if len(mk.Paths("Children", "XmasBar", 3)) == 0 {
		t.Error("XmasBar should be walkable after mining")
	}
}

// --- Example 3.2 / 3.13: FamilyIncome from two Parents copies ---

func TestExample32FamilyIncome(t *testing.T) {
	in := Instance()
	m := FamilyIncomeMapping()
	if err := m.Validate(in); err != nil {
		t.Fatal(err)
	}
	res, err := m.Evaluate(in)
	if err != nil {
		t.Fatal(err)
	}
	incomes := map[string]value.Value{}
	for _, tp := range res.Tuples() {
		incomes[tp.Get("Kids.ID").String()] = tp.Get("Kids.FamilyIncome")
	}
	// Ann: 65000 + 58000 = 123000 → filtered by the 100k constraint;
	// she still appears only if her income row is excluded entirely.
	if v, ok := incomes["001"]; ok && !v.IsNull() {
		t.Errorf("Ann's income %v exceeds the Example 3.13 bound", v)
	}
	// Zoe: 69000 + 47000 = 116000 → also filtered.
	if v, ok := incomes["009"]; ok && !v.IsNull() {
		t.Errorf("Zoe's income %v exceeds the bound", v)
	}
	// Bo has no father: income is null (sum with null), kept by the
	// OR IS NULL branch.
	if v, ok := incomes["004"]; !ok || !v.IsNull() {
		t.Errorf("Bo's income = %v, want null row kept", v)
	}
	// Nobody below the bound exists in this instance (Maya: 72000 +
	// 61000 = 133000), so no non-null income survives.
	for id, v := range incomes {
		if !v.IsNull() {
			t.Errorf("kid %s has surviving income %v", id, v)
		}
	}
}

func TestSection2Explain(t *testing.T) {
	s := Section2Mapping().Explain()
	for _, want := range []string{
		`Mapping "section2" populates Kids.`,
		"Parents2 (a second copy of Parents)",
		"Children pairs with SBPS when Children.ID = SBPS.ID",
		"Kids.contactPh := PhoneDir.number",
		"Target rows are kept only when Kids.ID IS NOT NULL",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("explanation missing %q:\n%s", want, s)
		}
	}
}
