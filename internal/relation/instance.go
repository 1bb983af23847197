package relation

import (
	"fmt"
	"sort"

	"clio/internal/schema"
)

// Instance is a database instance: named relation instances plus the
// schema they conform to. By convention, the instance relation named R
// has scheme attributes qualified as "R.attr"; aliased copies rename
// the qualifier.
type Instance struct {
	Schema *schema.Database
	rels   map[string]*Relation
	order  []string
}

// NewInstance creates an empty instance of the given schema.
func NewInstance(sch *schema.Database) *Instance {
	return &Instance{Schema: sch, rels: map[string]*Relation{}}
}

// SchemeFor builds the qualified scheme for a schema relation, e.g.
// Children(ID, name) → (Children.ID, Children.name).
func SchemeFor(r *schema.Relation) *Scheme {
	return NewScheme(r.QualifiedNames()...)
}

// NewRelationFor creates an empty relation instance for the named
// schema relation. It panics if the relation is not in the schema.
func (in *Instance) NewRelationFor(name string) *Relation {
	sr := in.Schema.Relation(name)
	if sr == nil {
		panic(fmt.Sprintf("relation: schema has no relation %q", name))
	}
	return New(name, SchemeFor(sr))
}

// Add registers a relation instance. It returns an error on duplicate
// names or if the schema does not declare the relation.
func (in *Instance) Add(r *Relation) error {
	if in.Schema != nil && in.Schema.Relation(r.Name) == nil {
		return fmt.Errorf("relation: instance relation %q not in schema", r.Name)
	}
	if _, dup := in.rels[r.Name]; dup {
		return fmt.Errorf("relation: duplicate instance relation %q", r.Name)
	}
	in.rels[r.Name] = r
	in.order = append(in.order, r.Name)
	return nil
}

// MustAdd is Add that panics on error.
func (in *Instance) MustAdd(r *Relation) {
	if err := in.Add(r); err != nil {
		panic(err)
	}
}

// Relation returns the named relation instance, or nil.
func (in *Instance) Relation(name string) *Relation { return in.rels[name] }

// Names returns the instance relation names in registration order.
func (in *Instance) Names() []string {
	out := make([]string, len(in.order))
	copy(out, in.order)
	return out
}

// Relations returns the instances in registration order.
func (in *Instance) Relations() []*Relation {
	out := make([]*Relation, 0, len(in.order))
	for _, n := range in.order {
		out = append(out, in.rels[n])
	}
	return out
}

// Aliased returns the named base relation re-qualified under an alias
// (the paper's relation copies: Parents → Parents2). If alias equals
// the base name the stored relation is returned unchanged.
func (in *Instance) Aliased(base, alias string) (*Relation, error) {
	r := in.rels[base]
	if r == nil {
		return nil, fmt.Errorf("relation: instance has no relation %q", base)
	}
	if alias == base {
		return r, nil
	}
	rename := make(map[string]string, r.Scheme().Arity())
	for _, qn := range r.Scheme().Names() {
		ref, err := schema.ParseColumnRef(qn)
		if err != nil {
			return nil, err
		}
		rename[qn] = alias + "." + ref.Attr
	}
	return r.Rename(alias, rename), nil
}

// AliasedColumns is the columnar Aliased: the stored relation's cached
// Columns() view, under the alias's qualified scheme when alias differs
// from base. The column vectors are shared, not copied.
func (in *Instance) AliasedColumns(base, alias string) (*Batch, error) {
	r := in.rels[base]
	if r == nil {
		return nil, fmt.Errorf("relation: instance has no relation %q", base)
	}
	b := r.Columns()
	if alias == base {
		return b, nil
	}
	names := make([]string, r.Scheme().Arity())
	for i, qn := range r.Scheme().Names() {
		ref, err := schema.ParseColumnRef(qn)
		if err != nil {
			return nil, err
		}
		names[i] = alias + "." + ref.Attr
	}
	return b.Renamed(NewScheme(names...)), nil
}

// TotalTuples returns the total tuple count across all relations.
func (in *Instance) TotalTuples() int {
	n := 0
	for _, r := range in.rels {
		n += r.Len()
	}
	return n
}

// Version returns the sum of all relation mutation counters. Any
// mutation of any relation in the instance changes it, so callers can
// cheaply detect "the instance changed since I last looked".
func (in *Instance) Version() uint64 {
	var v uint64
	for _, r := range in.rels {
		v += r.Version()
	}
	return v
}

// Sample returns a deterministic pseudo-random sample of at most n
// tuples from r (reservoir sampling with a fixed linear-congruential
// stream). Sampling keeps illustrations responsive on large sources —
// the paper's companion discussion of large data volumes.
func Sample(r *Relation, n int, seed int64) *Relation {
	if n <= 0 || r.Len() <= n {
		return r.Clone()
	}
	out := New(r.Name, r.Scheme())
	idx := make([]int, n)
	state := uint64(seed)*6364136223846793005 + 1442695040888963407
	next := func(bound int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % bound
	}
	for i := 0; i < r.Len(); i++ {
		if i < n {
			idx[i] = i
			continue
		}
		if j := next(i + 1); j < n {
			idx[j] = i
		}
	}
	sort.Ints(idx)
	for _, i := range idx {
		out.Add(r.At(i))
	}
	return out
}

// SampleInstance samples every relation of an instance down to at
// most n tuples each, preserving the schema.
func SampleInstance(in *Instance, n int, seed int64) *Instance {
	out := NewInstance(in.Schema)
	for _, name := range in.Names() {
		out.MustAdd(Sample(in.Relation(name), n, seed))
	}
	return out
}
