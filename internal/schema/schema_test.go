package schema

import (
	"strings"
	"testing"

	"clio/internal/value"
)

func sampleDB(t *testing.T) *Database {
	t.Helper()
	d := NewDatabase()
	d.MustAddRelation(NewRelation("Children",
		Attribute{"ID", value.KindString},
		Attribute{"name", value.KindString},
		Attribute{"age", value.KindInt},
		Attribute{"mid", value.KindString},
		Attribute{"fid", value.KindString},
	))
	d.MustAddRelation(NewRelation("Parents",
		Attribute{"ID", value.KindString},
		Attribute{"affiliation", value.KindString},
	))
	d.AddKey("Parents", "ID")
	d.AddForeignKey("mid_fk", "Children", []string{"mid"}, "Parents", []string{"ID"})
	d.AddForeignKey("fid_fk", "Children", []string{"fid"}, "Parents", []string{"ID"})
	d.AddNotNull("Children", "ID")
	return d
}

func TestRelationBasics(t *testing.T) {
	r := NewRelation("R", Attribute{"a", value.KindInt}, Attribute{"b", value.KindString})
	if r.Arity() != 2 {
		t.Errorf("Arity = %d, want 2", r.Arity())
	}
	if r.AttrIndex("b") != 1 {
		t.Errorf("AttrIndex(b) = %d, want 1", r.AttrIndex("b"))
	}
	if r.AttrIndex("z") != -1 {
		t.Error("AttrIndex(z) should be -1")
	}
	if !r.HasAttr("a") || r.HasAttr("c") {
		t.Error("HasAttr wrong")
	}
	if r.Qualified(0) != "R.a" {
		t.Errorf("Qualified(0) = %q", r.Qualified(0))
	}
	if got := r.QualifiedNames(); len(got) != 2 || got[1] != "R.b" {
		t.Errorf("QualifiedNames = %v", got)
	}
	if r.String() != "R(a, b)" {
		t.Errorf("String = %q", r.String())
	}
	if r.IsCopy() {
		t.Error("fresh relation should not be a copy")
	}
}

func TestRelationCopy(t *testing.T) {
	r := NewRelation("Parents", Attribute{"ID", value.KindString}, Attribute{"affiliation", value.KindString})
	c := r.Copy("Parents2")
	if !c.IsCopy() {
		t.Error("copy should report IsCopy")
	}
	if c.Base != "Parents" || c.Name != "Parents2" {
		t.Errorf("copy identity wrong: name=%s base=%s", c.Name, c.Base)
	}
	if c.Qualified(0) != "Parents2.ID" {
		t.Errorf("copy qualified name = %q", c.Qualified(0))
	}
	// Mutating the copy's attrs must not touch the original.
	c.Attrs[0].Name = "XID"
	if r.Attrs[0].Name != "ID" {
		t.Error("copy shares attribute storage with original")
	}
}

func TestColumnRef(t *testing.T) {
	c, err := ParseColumnRef("Children.ID")
	if err != nil {
		t.Fatal(err)
	}
	if c.Relation != "Children" || c.Attr != "ID" {
		t.Errorf("parsed ref = %+v", c)
	}
	if c.String() != "Children.ID" {
		t.Errorf("String = %q", c.String())
	}
	for _, bad := range []string{"noDot", ".x", "x.", ""} {
		if _, err := ParseColumnRef(bad); err == nil {
			t.Errorf("ParseColumnRef(%q) should fail", bad)
		}
	}
	if Col("R", "a") != (ColumnRef{"R", "a"}) {
		t.Error("Col constructor wrong")
	}
}

func TestDatabaseRegistration(t *testing.T) {
	d := sampleDB(t)
	if d.Relation("Children") == nil || d.Relation("Parents") == nil {
		t.Fatal("relations missing")
	}
	if d.Relation("Nope") != nil {
		t.Error("unknown relation should be nil")
	}
	if err := d.AddRelation(NewRelation("Children")); err == nil {
		t.Error("duplicate registration should fail")
	}
	names := d.RelationNames()
	if len(names) != 2 || names[0] != "Children" || names[1] != "Parents" {
		t.Errorf("RelationNames = %v", names)
	}
	rels := d.Relations()
	if len(rels) != 2 || rels[0].Name != "Children" {
		t.Errorf("Relations order wrong: %v", rels)
	}
}

func TestMustAddRelationPanics(t *testing.T) {
	d := sampleDB(t)
	defer func() {
		if recover() == nil {
			t.Error("MustAddRelation should panic on duplicate")
		}
	}()
	d.MustAddRelation(NewRelation("Children"))
}

func TestConstraintQueries(t *testing.T) {
	d := sampleDB(t)
	if got := d.ForeignKeysFrom("Children"); len(got) != 2 {
		t.Errorf("ForeignKeysFrom(Children) = %d FKs, want 2", len(got))
	}
	if got := d.ForeignKeysTo("Parents"); len(got) != 2 {
		t.Errorf("ForeignKeysTo(Parents) = %d FKs, want 2", len(got))
	}
	if got := d.ForeignKeysFrom("Parents"); len(got) != 0 {
		t.Errorf("ForeignKeysFrom(Parents) = %d FKs, want 0", len(got))
	}
	if got := d.NotNullAttrs("Children"); len(got) != 1 || got[0] != "ID" {
		t.Errorf("NotNullAttrs(Children) = %v", got)
	}
	if got := d.NotNullAttrs("Parents"); len(got) != 0 {
		t.Errorf("NotNullAttrs(Parents) = %v", got)
	}
}

func TestValidateOK(t *testing.T) {
	if err := sampleDB(t).Validate(); err != nil {
		t.Errorf("valid schema failed validation: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	mk := func(mut func(*Database)) error {
		d := sampleDB(t)
		mut(d)
		return d.Validate()
	}
	cases := []struct {
		name string
		mut  func(*Database)
	}{
		{"key unknown relation", func(d *Database) { d.AddKey("Nope", "x") }},
		{"key unknown attr", func(d *Database) { d.AddKey("Parents", "nope") }},
		{"fk unknown relation", func(d *Database) {
			d.AddForeignKey("bad", "Nope", []string{"x"}, "Parents", []string{"ID"})
		}},
		{"fk arity mismatch", func(d *Database) {
			d.AddForeignKey("bad", "Children", []string{"mid", "fid"}, "Parents", []string{"ID"})
		}},
		{"fk empty attrs", func(d *Database) {
			d.AddForeignKey("bad", "Children", nil, "Parents", nil)
		}},
		{"fk unknown from attr", func(d *Database) {
			d.AddForeignKey("bad", "Children", []string{"nope"}, "Parents", []string{"ID"})
		}},
		{"fk unknown to attr", func(d *Database) {
			d.AddForeignKey("bad", "Children", []string{"mid"}, "Parents", []string{"nope"})
		}},
		{"notnull unknown relation", func(d *Database) { d.AddNotNull("Nope", "x") }},
		{"notnull unknown attr", func(d *Database) { d.AddNotNull("Parents", "nope") }},
	}
	for _, c := range cases {
		if err := mk(c.mut); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestStringRendering(t *testing.T) {
	d := sampleDB(t)
	s := d.String()
	for _, want := range []string{
		"Children(ID, name, age, mid, fid)",
		"Parents(ID, affiliation)",
		"KEY Parents(ID)",
		"FK mid_fk: Children(mid) -> Parents(ID)",
		"NOT NULL Children.ID",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("schema rendering missing %q in:\n%s", want, s)
		}
	}
}

func TestParseRelationSpec(t *testing.T) {
	cases := []struct {
		spec, want, err string // want is the rendered scheme; err a substring of the error
	}{
		{spec: "T(a, b)", want: "T(a, b)"},
		{spec: " Kids ( ID,name ,, age)", want: "Kids(ID, name, age)"},
		{spec: "T", err: "bad relation spec"},
		{spec: "(a, b)", err: "bad relation spec"},
		{spec: "T( , )", err: "bad relation spec"},
		{spec: "T(a, b, a)", err: `repeats attribute "a"`},
	}
	for _, c := range cases {
		r, err := ParseRelationSpec(c.spec)
		switch {
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("ParseRelationSpec(%q) error = %v, want one containing %q", c.spec, err, c.err)
		case c.err == "" && err != nil:
			t.Errorf("ParseRelationSpec(%q): %v", c.spec, err)
		case c.err == "" && r.String() != c.want:
			t.Errorf("ParseRelationSpec(%q) = %s, want %s", c.spec, r, c.want)
		}
	}
}
