package relation

import (
	"testing"

	"clio/internal/value"
)

func TestSchemeBasics(t *testing.T) {
	s := NewScheme("R.a", "R.b", "S.c")
	if s.Arity() != 3 {
		t.Errorf("Arity = %d", s.Arity())
	}
	if s.Index("R.b") != 1 || s.Index("nope") != -1 {
		t.Error("Index wrong")
	}
	if !s.Has("S.c") || s.Has("S.d") {
		t.Error("Has wrong")
	}
	if s.Name(2) != "S.c" {
		t.Error("Name wrong")
	}
	if s.String() != "(R.a, R.b, S.c)" {
		t.Errorf("String = %q", s.String())
	}
}

func TestSchemeDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate attribute should panic")
		}
	}()
	NewScheme("R.a", "R.a")
}

func TestSchemeEqualSameSet(t *testing.T) {
	a := NewScheme("x", "y")
	b := NewScheme("x", "y")
	c := NewScheme("y", "x")
	d := NewScheme("x", "z")
	if !a.Equal(b) || a.Equal(c) || a.Equal(d) {
		t.Error("Equal wrong")
	}
	if !a.SameSet(c) || a.SameSet(d) {
		t.Error("SameSet wrong")
	}
	if a.SameSet(NewScheme("x")) {
		t.Error("SameSet with different arity")
	}
}

func TestSchemeCombinators(t *testing.T) {
	a := NewScheme("x", "y")
	b := NewScheme("y", "z")
	u := a.Union(b)
	if u.Arity() != 3 || u.Name(2) != "z" {
		t.Errorf("Union = %v", u)
	}
	c := a.Concat(NewScheme("p", "q"))
	if c.Arity() != 4 || c.Name(3) != "q" {
		t.Errorf("Concat = %v", c)
	}
	p := u.Project("z", "x")
	if p.Arity() != 2 || p.Name(0) != "z" {
		t.Errorf("Project = %v", p)
	}
	pos := u.Positions("z", "x")
	if pos[0] != 2 || pos[1] != 0 {
		t.Errorf("Positions = %v", pos)
	}
}

func TestSchemeProjectMissingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("projecting missing attribute should panic")
		}
	}()
	NewScheme("x").Project("y")
}

func mkTuple(s *Scheme, vals ...string) Tuple {
	vs := make([]value.Value, len(vals))
	for i, v := range vals {
		vs[i] = value.Parse(v)
	}
	return NewTuple(s, vs...)
}

func TestTupleBasics(t *testing.T) {
	s := NewScheme("R.a", "R.b")
	tp := mkTuple(s, "1", "x")
	if tp.Get("R.a").IntVal() != 1 {
		t.Error("Get wrong")
	}
	if v, ok := tp.Lookup("R.b"); !ok || v.Str() != "x" {
		t.Error("Lookup wrong")
	}
	if _, ok := tp.Lookup("nope"); ok {
		t.Error("Lookup missing should report !ok")
	}
	if tp.At(1).Str() != "x" {
		t.Error("At wrong")
	}
	if tp.IsAllNull() {
		t.Error("IsAllNull on non-null tuple")
	}
	if !AllNull(s).IsAllNull() {
		t.Error("AllNull not all null")
	}
	if tp.String() != "[R.a:1 R.b:x]" {
		t.Errorf("String = %q", tp.String())
	}
}

func TestTupleMapAndPad(t *testing.T) {
	s := NewScheme("a", "b", "c")
	tp := NewTupleMap(s, map[string]value.Value{"a": value.Int(1), "c": value.String("z")})
	if !tp.Get("b").IsNull() || tp.Get("c").Str() != "z" {
		t.Error("NewTupleMap wrong")
	}
	wide := NewScheme("c", "a", "d")
	p := tp.PadTo(wide)
	if p.Get("c").Str() != "z" || p.Get("a").IntVal() != 1 || !p.Get("d").IsNull() {
		t.Errorf("PadTo wrong: %v", p)
	}
}

func TestTupleSubsumption(t *testing.T) {
	s := NewScheme("a", "b", "c")
	full := mkTuple(s, "1", "x", "y")
	partial := mkTuple(s, "1", "x", "-")
	other := mkTuple(s, "2", "x", "-")
	if !full.Subsumes(partial) {
		t.Error("full should subsume partial")
	}
	if !full.StrictlySubsumes(partial) {
		t.Error("full should strictly subsume partial")
	}
	if partial.Subsumes(full) {
		t.Error("partial should not subsume full")
	}
	if full.Subsumes(other) {
		t.Error("different values should not subsume")
	}
	if !full.Subsumes(full) {
		t.Error("subsumption is reflexive")
	}
	if full.StrictlySubsumes(full) {
		t.Error("strict subsumption is irreflexive")
	}
	if !full.Subsumes(AllNull(s)) {
		t.Error("everything subsumes the all-null tuple")
	}
	// Different schemes never subsume.
	s2 := NewScheme("a", "b", "d")
	if full.Subsumes(mkTuple(s2, "1", "x", "-")) {
		t.Error("different schemes should not subsume")
	}
}

func TestTupleProjectConcat(t *testing.T) {
	s := NewScheme("a", "b")
	tp := mkTuple(s, "1", "x")
	p := tp.Project(NewScheme("b"))
	if p.Scheme().Arity() != 1 || p.Get("b").Str() != "x" {
		t.Error("Project wrong")
	}
	o := mkTuple(NewScheme("c"), "9")
	cat := tp.Concat(o)
	if cat.Scheme().Arity() != 3 || cat.Get("c").IntVal() != 9 {
		t.Error("Concat wrong")
	}
}

func TestTupleKeys(t *testing.T) {
	s := NewScheme("a", "b")
	t1 := mkTuple(s, "1", "x")
	t2 := mkTuple(s, "1", "x")
	t3 := mkTuple(s, "1", "-")
	if t1.Key() != t2.Key() {
		t.Error("equal tuples should share key")
	}
	if t1.Key() == t3.Key() {
		t.Error("different tuples should have different keys")
	}
	if t1.KeyOn([]int{0}) != t3.KeyOn([]int{0}) {
		t.Error("KeyOn shared prefix should match")
	}
}

func TestMask(t *testing.T) {
	m := NewMask(70)
	m.Set(0)
	m.Set(65)
	if !m.Has(0) || !m.Has(65) || m.Has(1) {
		t.Error("Mask set/has wrong")
	}
	o := NewMask(70)
	o.Set(0)
	if !m.SupersetOf(o) || o.SupersetOf(m) {
		t.Error("SupersetOf wrong")
	}
	if m.Equal(o) {
		t.Error("Equal wrong")
	}
	o.Set(65)
	if !m.Equal(o) || m.Key() != o.Key() {
		t.Error("equal masks should match")
	}
	if got := m.Ones(); len(got) != 2 || got[1] != 65 {
		t.Errorf("Ones = %v", got)
	}
	if m.Count() != 2 {
		t.Errorf("Count = %d", m.Count())
	}
}

func TestRelationBasics(t *testing.T) {
	s := NewScheme("R.a", "R.b")
	r := New("R", s)
	r.AddRow("1", "x")
	r.AddRow("2", "y")
	r.AddRow("1", "x")
	if r.Len() != 3 {
		t.Errorf("Len = %d", r.Len())
	}
	if !r.Contains(mkTuple(s, "2", "y")) {
		t.Error("Contains wrong")
	}
	if r.Contains(mkTuple(s, "3", "z")) {
		t.Error("Contains false positive")
	}
	d := r.Distinct()
	if d.Len() != 2 {
		t.Errorf("Distinct len = %d", d.Len())
	}
	f := r.Filter(func(t Tuple) bool { return t.Get("R.a").Equal(value.Int(1)) })
	if f.Len() != 2 {
		t.Errorf("Filter len = %d", f.Len())
	}
	p := r.Project("R.b")
	if p.Scheme().Arity() != 1 || p.Len() != 3 {
		t.Error("Project wrong")
	}
}

func TestRelationRenameCloneSorted(t *testing.T) {
	s := NewScheme("R.a", "R.b")
	r := New("R", s)
	r.AddRow("2", "y")
	r.AddRow("1", "x")
	rn := r.Rename("R2", map[string]string{"R.a": "R2.a", "R.b": "R2.b"})
	if rn.Scheme().Name(0) != "R2.a" || rn.Len() != 2 {
		t.Error("Rename wrong")
	}
	if rn.At(0).Get("R2.a").IntVal() != 2 {
		t.Error("Rename lost values")
	}
	cl := r.Clone()
	cl.AddRow("3", "z")
	if r.Len() != 2 || cl.Len() != 3 {
		t.Error("Clone not independent")
	}
	so := r.Sorted()
	if so.At(0).Get("R.a").IntVal() != 1 {
		t.Error("Sorted wrong")
	}
}

func TestRelationEqualSet(t *testing.T) {
	s := NewScheme("a", "b")
	r1 := New("R", s)
	r1.AddRow("1", "x")
	r1.AddRow("2", "y")
	// Same set, different order, different attr order, with dup.
	s2 := NewScheme("b", "a")
	r2 := New("S", s2)
	r2.AddRow("y", "2")
	r2.AddRow("x", "1")
	r2.AddRow("x", "1")
	if !r1.EqualSet(r2) {
		t.Error("EqualSet should hold")
	}
	r2.AddRow("z", "3")
	if r1.EqualSet(r2) {
		t.Error("EqualSet should fail after extra tuple")
	}
	r3 := New("T", NewScheme("a", "c"))
	if r1.EqualSet(r3) {
		t.Error("EqualSet across schemes should fail")
	}
}

func TestAddSchemeMismatchPanics(t *testing.T) {
	r := New("R", NewScheme("a"))
	defer func() {
		if recover() == nil {
			t.Error("scheme mismatch should panic")
		}
	}()
	r.Add(mkTuple(NewScheme("b"), "1"))
}
