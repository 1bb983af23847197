// Package schema models relation schemes, database schemas, and
// integrity constraints (keys, foreign keys, not-null), including the
// relation "copies" the paper's mappings require (e.g. Parents2 as a
// second copy of Parents, Section 2).
//
// Attributes are identified by qualified names, Relation.Attribute.
// A copy of a relation shares the base relation's attribute names but
// qualifies them with the copy's alias, so predicates can refer to each
// copy unambiguously (paper Section 3, Preliminaries).
package schema

import (
	"fmt"
	"sort"
	"strings"

	"clio/internal/value"
)

// Attribute describes one column of a relation scheme.
type Attribute struct {
	// Name is the unqualified column name, e.g. "ID".
	Name string
	// Type is the expected kind of values in the column. KindNull means
	// untyped/any.
	Type value.Kind
}

// Relation describes a relation scheme: a named, ordered list of
// attributes. Order matters only for display; the set of names is what
// defines the scheme.
type Relation struct {
	// Name is the relation name, e.g. "Children". For a copy, Name is
	// the alias (e.g. "Parents2") and Base is the original name.
	Name string
	// Base is the underlying stored relation's name. For non-copies,
	// Base == Name.
	Base  string
	Attrs []Attribute
}

// NewRelation builds a relation scheme; Base defaults to Name.
func NewRelation(name string, attrs ...Attribute) *Relation {
	return &Relation{Name: name, Base: name, Attrs: attrs}
}

// ParseRelationSpec parses a relation scheme written
// "Name(attr, attr, ...)", the form a target is given in. It refuses a
// spec without a name or attributes, and one that repeats an
// attribute, naming it.
func ParseRelationSpec(spec string) (*Relation, error) {
	open := strings.IndexByte(spec, '(')
	if open < 0 || !strings.HasSuffix(spec, ")") {
		return nil, fmt.Errorf("schema: bad relation spec %q (want Name(attr, ...))", spec)
	}
	name := strings.TrimSpace(spec[:open])
	var attrs []Attribute
	seen := map[string]bool{}
	for _, a := range strings.Split(spec[open+1:len(spec)-1], ",") {
		if a = strings.TrimSpace(a); a == "" {
			continue
		}
		if seen[a] {
			return nil, fmt.Errorf("schema: relation spec %q repeats attribute %q", spec, a)
		}
		seen[a] = true
		attrs = append(attrs, Attribute{Name: a})
	}
	if name == "" || len(attrs) == 0 {
		return nil, fmt.Errorf("schema: bad relation spec %q (want Name(attr, ...))", spec)
	}
	return NewRelation(name, attrs...), nil
}

// IsCopy reports whether r is an aliased copy of another relation.
func (r *Relation) IsCopy() bool { return r.Base != r.Name }

// Copy creates an aliased copy of r with the given alias. The copy has
// the same attributes but its qualified names use the alias.
func (r *Relation) Copy(alias string) *Relation {
	attrs := make([]Attribute, len(r.Attrs))
	copy(attrs, r.Attrs)
	return &Relation{Name: alias, Base: r.Base, Attrs: attrs}
}

// Arity returns the number of attributes.
func (r *Relation) Arity() int { return len(r.Attrs) }

// AttrIndex returns the position of the named (unqualified) attribute,
// or -1 if absent.
func (r *Relation) AttrIndex(name string) int {
	for i, a := range r.Attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// HasAttr reports whether the relation has the named attribute.
func (r *Relation) HasAttr(name string) bool { return r.AttrIndex(name) >= 0 }

// Qualified returns the qualified name of the i-th attribute,
// e.g. "Children.ID".
func (r *Relation) Qualified(i int) string {
	return r.Name + "." + r.Attrs[i].Name
}

// QualifiedNames returns all qualified attribute names in order.
func (r *Relation) QualifiedNames() []string {
	out := make([]string, len(r.Attrs))
	for i := range r.Attrs {
		out[i] = r.Qualified(i)
	}
	return out
}

// String renders the scheme as Name(attr1, attr2, ...).
func (r *Relation) String() string {
	names := make([]string, len(r.Attrs))
	for i, a := range r.Attrs {
		names[i] = a.Name
	}
	return r.Name + "(" + strings.Join(names, ", ") + ")"
}

// ColumnRef identifies a column by relation name and attribute name.
type ColumnRef struct {
	Relation string
	Attr     string
}

// Col builds a ColumnRef.
func Col(rel, attr string) ColumnRef { return ColumnRef{Relation: rel, Attr: attr} }

// ParseColumnRef parses "Rel.Attr" into a ColumnRef.
func ParseColumnRef(s string) (ColumnRef, error) {
	i := strings.IndexByte(s, '.')
	if i <= 0 || i == len(s)-1 {
		return ColumnRef{}, fmt.Errorf("schema: malformed column reference %q (want Rel.Attr)", s)
	}
	return ColumnRef{Relation: s[:i], Attr: s[i+1:]}, nil
}

// String renders the reference as Rel.Attr.
func (c ColumnRef) String() string { return c.Relation + "." + c.Attr }

// Key is a uniqueness constraint: the named attributes are unique
// (taken together) within the relation.
type Key struct {
	Relation string
	Attrs    []string
}

// String renders the key constraint.
func (k Key) String() string {
	return fmt.Sprintf("KEY %s(%s)", k.Relation, strings.Join(k.Attrs, ", "))
}

// ForeignKey is a referential constraint: FromRelation.FromAttrs
// references ToRelation.ToAttrs. Names like "mid"/"fid" referencing
// Parents.ID in the paper's example are foreign keys.
type ForeignKey struct {
	Name         string
	FromRelation string
	FromAttrs    []string
	ToRelation   string
	ToAttrs      []string
}

// String renders the foreign key constraint.
func (fk ForeignKey) String() string {
	return fmt.Sprintf("FK %s: %s(%s) -> %s(%s)", fk.Name,
		fk.FromRelation, strings.Join(fk.FromAttrs, ", "),
		fk.ToRelation, strings.Join(fk.ToAttrs, ", "))
}

// NotNull is a non-null constraint on one column.
type NotNull struct {
	Relation string
	Attr     string
}

// String renders the not-null constraint.
func (n NotNull) String() string { return fmt.Sprintf("NOT NULL %s.%s", n.Relation, n.Attr) }

// Database is a database schema: a set of relation schemes over
// mutually disjoint attribute namespaces (qualification guarantees
// disjointness), plus declared constraints.
type Database struct {
	relations map[string]*Relation
	order     []string // insertion order, for stable display
	Keys      []Key
	ForeignKs []ForeignKey
	NotNulls  []NotNull
}

// NewDatabase creates an empty database schema.
func NewDatabase() *Database {
	return &Database{relations: map[string]*Relation{}}
}

// AddRelation registers a relation scheme. It returns an error on
// duplicate names.
func (d *Database) AddRelation(r *Relation) error {
	if _, dup := d.relations[r.Name]; dup {
		return fmt.Errorf("schema: duplicate relation %q", r.Name)
	}
	d.relations[r.Name] = r
	d.order = append(d.order, r.Name)
	return nil
}

// MustAddRelation is AddRelation that panics on error; for use in
// fixtures and generators where the schema is statically correct.
func (d *Database) MustAddRelation(r *Relation) {
	if err := d.AddRelation(r); err != nil {
		panic(err)
	}
}

// Relation returns the named relation scheme, or nil.
func (d *Database) Relation(name string) *Relation { return d.relations[name] }

// Relations returns all relation schemes in registration order.
func (d *Database) Relations() []*Relation {
	out := make([]*Relation, 0, len(d.order))
	for _, n := range d.order {
		out = append(out, d.relations[n])
	}
	return out
}

// RelationNames returns all relation names in registration order.
func (d *Database) RelationNames() []string {
	out := make([]string, len(d.order))
	copy(out, d.order)
	return out
}

// AddKey declares a key constraint.
func (d *Database) AddKey(rel string, attrs ...string) { d.Keys = append(d.Keys, Key{rel, attrs}) }

// AddForeignKey declares a foreign key constraint.
func (d *Database) AddForeignKey(name, fromRel string, fromAttrs []string, toRel string, toAttrs []string) {
	d.ForeignKs = append(d.ForeignKs, ForeignKey{name, fromRel, fromAttrs, toRel, toAttrs})
}

// AddNotNull declares a not-null constraint.
func (d *Database) AddNotNull(rel, attr string) {
	d.NotNulls = append(d.NotNulls, NotNull{rel, attr})
}

// NotNullAttrs returns the non-null attribute names of a relation.
func (d *Database) NotNullAttrs(rel string) []string {
	var out []string
	for _, n := range d.NotNulls {
		if n.Relation == rel {
			out = append(out, n.Attr)
		}
	}
	sort.Strings(out)
	return out
}

// ForeignKeysFrom returns the foreign keys whose source is rel.
func (d *Database) ForeignKeysFrom(rel string) []ForeignKey {
	var out []ForeignKey
	for _, fk := range d.ForeignKs {
		if fk.FromRelation == rel {
			out = append(out, fk)
		}
	}
	return out
}

// ForeignKeysTo returns the foreign keys whose target is rel.
func (d *Database) ForeignKeysTo(rel string) []ForeignKey {
	var out []ForeignKey
	for _, fk := range d.ForeignKs {
		if fk.ToRelation == rel {
			out = append(out, fk)
		}
	}
	return out
}

// Validate checks internal consistency: constraints reference existing
// relations and attributes, FK arity matches.
func (d *Database) Validate() error {
	for _, k := range d.Keys {
		r := d.Relation(k.Relation)
		if r == nil {
			return fmt.Errorf("schema: key on unknown relation %q", k.Relation)
		}
		for _, a := range k.Attrs {
			if !r.HasAttr(a) {
				return fmt.Errorf("schema: key attribute %s.%s does not exist", k.Relation, a)
			}
		}
	}
	for _, fk := range d.ForeignKs {
		from, to := d.Relation(fk.FromRelation), d.Relation(fk.ToRelation)
		if from == nil || to == nil {
			return fmt.Errorf("schema: foreign key %s references unknown relation", fk.Name)
		}
		if len(fk.FromAttrs) != len(fk.ToAttrs) || len(fk.FromAttrs) == 0 {
			return fmt.Errorf("schema: foreign key %s has mismatched attribute lists", fk.Name)
		}
		for _, a := range fk.FromAttrs {
			if !from.HasAttr(a) {
				return fmt.Errorf("schema: foreign key %s: %s.%s does not exist", fk.Name, fk.FromRelation, a)
			}
		}
		for _, a := range fk.ToAttrs {
			if !to.HasAttr(a) {
				return fmt.Errorf("schema: foreign key %s: %s.%s does not exist", fk.Name, fk.ToRelation, a)
			}
		}
	}
	for _, n := range d.NotNulls {
		r := d.Relation(n.Relation)
		if r == nil {
			return fmt.Errorf("schema: not-null on unknown relation %q", n.Relation)
		}
		if !r.HasAttr(n.Attr) {
			return fmt.Errorf("schema: not-null attribute %s.%s does not exist", n.Relation, n.Attr)
		}
	}
	return nil
}

// String renders the whole schema, one relation per line, then
// constraints.
func (d *Database) String() string {
	var b strings.Builder
	for _, r := range d.Relations() {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	for _, k := range d.Keys {
		b.WriteString(k.String())
		b.WriteByte('\n')
	}
	for _, fk := range d.ForeignKs {
		b.WriteString(fk.String())
		b.WriteByte('\n')
	}
	for _, n := range d.NotNulls {
		b.WriteString(n.String())
		b.WriteByte('\n')
	}
	return b.String()
}
