// Package relation implements relation instances: schemes of qualified
// attribute names, tuples over those schemes, columnar batches, and the
// null-aware set operations the paper builds on — subsumption
// (Definition 3.8), outer union, and minimum union (Definition 3.9).
package relation

import (
	"fmt"
	"strings"
)

// Scheme is an ordered list of qualified attribute names (for example
// "Children.ID"). Tuples over a Scheme store values positionally, so a
// Scheme is shared, immutable after construction, and carries an index
// for O(1) attribute lookup.
type Scheme struct {
	names []string
	index map[string]int
}

// NewScheme constructs a Scheme from qualified attribute names. It
// panics on duplicates: schemes model sets of attributes.
func NewScheme(names ...string) *Scheme {
	s, err := SchemeFrom(names)
	if err != nil {
		panic(err.Error())
	}
	return s
}

// SchemeFrom is NewScheme for names read from outside the program
// (snapshots, journals): a repeated name is an error, not a panic.
func SchemeFrom(names []string) (*Scheme, error) {
	s := &Scheme{names: append([]string(nil), names...), index: make(map[string]int, len(names))}
	for i, n := range names {
		if _, dup := s.index[n]; dup {
			return nil, fmt.Errorf("relation: duplicate attribute %q in scheme", n)
		}
		s.index[n] = i
	}
	return s, nil
}

// Arity returns the number of attributes.
func (s *Scheme) Arity() int { return len(s.names) }

// Names returns the attribute names in order. The caller must not
// mutate the returned slice.
func (s *Scheme) Names() []string { return s.names }

// Name returns the i-th attribute name.
func (s *Scheme) Name(i int) string { return s.names[i] }

// Index returns the position of the named attribute, or -1.
func (s *Scheme) Index(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// Has reports whether the scheme contains the named attribute.
func (s *Scheme) Has(name string) bool { _, ok := s.index[name]; return ok }

// Equal reports whether two schemes have the same attributes in the
// same order.
func (s *Scheme) Equal(o *Scheme) bool {
	if s == o {
		return true
	}
	if s.Arity() != o.Arity() {
		return false
	}
	for i, n := range s.names {
		if o.names[i] != n {
			return false
		}
	}
	return true
}

// SameSet reports whether two schemes have the same attribute set,
// ignoring order.
func (s *Scheme) SameSet(o *Scheme) bool {
	if s.Arity() != o.Arity() {
		return false
	}
	for _, n := range s.names {
		if !o.Has(n) {
			return false
		}
	}
	return true
}

// Concat returns a new scheme with s's attributes followed by o's.
// It panics if the schemes overlap (concatenation models a cross
// product of disjoint relation copies).
func (s *Scheme) Concat(o *Scheme) *Scheme {
	out := &Scheme{names: make([]string, 0, s.Arity()+o.Arity()), index: make(map[string]int, s.Arity()+o.Arity())}
	for _, n := range s.names {
		out.index[n] = len(out.names)
		out.names = append(out.names, n)
	}
	for _, n := range o.names {
		if _, dup := out.index[n]; dup {
			panic(fmt.Sprintf("relation: duplicate attribute %q in scheme", n))
		}
		out.index[n] = len(out.names)
		out.names = append(out.names, n)
	}
	return out
}

// Union returns a new scheme containing s's attributes followed by
// those of o not already present (the outer-union scheme).
func (s *Scheme) Union(o *Scheme) *Scheme {
	names := make([]string, 0, s.Arity()+o.Arity())
	names = append(names, s.names...)
	for _, n := range o.names {
		if !s.Has(n) {
			names = append(names, n)
		}
	}
	return NewScheme(names...)
}

// Project returns a new scheme with only the given attributes, in the
// given order. It panics if an attribute is missing.
func (s *Scheme) Project(names ...string) *Scheme {
	for _, n := range names {
		if !s.Has(n) {
			panic(fmt.Sprintf("relation: projecting on missing attribute %q", n))
		}
	}
	return NewScheme(names...)
}

// Positions maps attribute names to their positions in s. It panics if
// an attribute is missing.
func (s *Scheme) Positions(names ...string) []int {
	out := make([]int, len(names))
	for i, n := range names {
		p := s.Index(n)
		if p < 0 {
			panic(fmt.Sprintf("relation: scheme has no attribute %q", n))
		}
		out[i] = p
	}
	return out
}

// String renders the scheme as (a, b, c).
func (s *Scheme) String() string { return "(" + strings.Join(s.names, ", ") + ")" }
