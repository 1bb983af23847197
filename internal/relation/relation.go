package relation

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"clio/internal/value"
)

// Relation is a named, finite set of tuples over a scheme. Tuples are
// stored in insertion order; set semantics (duplicate elimination) are
// applied by the operations that require them.
type Relation struct {
	Name   string
	scheme *Scheme
	tuples []Tuple
	// version counts mutations (every Add bumps it), so caches keyed
	// on relation state can detect staleness without rehashing content.
	version uint64
	// cache holds the version-keyed columnar view; see columns.go.
	cache atomic.Pointer[columnCache]
}

// New creates an empty relation over the scheme.
func New(name string, s *Scheme) *Relation {
	return &Relation{Name: name, scheme: s}
}

// FromTuples creates a relation from existing tuples, which must all
// share the relation's scheme.
func FromTuples(name string, s *Scheme, tuples []Tuple) *Relation {
	r := New(name, s)
	for _, t := range tuples {
		r.Add(t)
	}
	return r
}

// Scheme returns the relation's scheme.
func (r *Relation) Scheme() *Scheme { return r.scheme }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// Tuples returns the stored tuples in insertion order. The caller must
// not mutate the returned slice.
func (r *Relation) Tuples() []Tuple { return r.tuples }

// At returns the i-th tuple.
func (r *Relation) At(i int) Tuple { return r.tuples[i] }

// Add appends a tuple, which must be over the relation's scheme.
func (r *Relation) Add(t Tuple) {
	if t.scheme != r.scheme && !t.scheme.Equal(r.scheme) {
		panic(fmt.Sprintf("relation: adding tuple with scheme %v to relation %s%v", t.scheme, r.Name, r.scheme))
	}
	r.tuples = append(r.tuples, t)
	r.version++
}

// Version returns the relation's mutation counter: it starts at zero
// and increases on every mutation (Add, RemoveAt, InsertAt), so equal
// versions of the same relation object imply identical content.
func (r *Relation) Version() uint64 { return r.version }

// RemoveAt removes and returns the i-th tuple, preserving the order of
// the remaining tuples. Like every mutation it bumps the version.
func (r *Relation) RemoveAt(i int) Tuple {
	t := r.tuples[i]
	r.tuples = append(r.tuples[:i], r.tuples[i+1:]...)
	r.version++
	return t
}

// InsertAt inserts t at position i, shifting later tuples — the exact
// inverse of RemoveAt at the same position, which is how callers roll
// back a failed delete.
func (r *Relation) InsertAt(i int, t Tuple) {
	if t.scheme != r.scheme && !t.scheme.Equal(r.scheme) {
		panic(fmt.Sprintf("relation: inserting tuple with scheme %v into relation %s%v", t.scheme, r.Name, r.scheme))
	}
	r.tuples = append(r.tuples, Tuple{})
	copy(r.tuples[i+1:], r.tuples[i:])
	r.tuples[i] = t
	r.version++
}

// IndexOf returns the position of the first tuple Equal to t, or -1.
func (r *Relation) IndexOf(t Tuple) int {
	for i, u := range r.tuples {
		if u.Equal(t) {
			return i
		}
	}
	return -1
}

// Prefix returns a view of the first n tuples that shares storage with
// r. It is a transient read-only snapshot: it stays valid while r only
// appends (Add), but a RemoveAt/InsertAt on r shifts the shared backing
// array under it.
func (r *Relation) Prefix(n int) *Relation {
	return &Relation{Name: r.Name, scheme: r.scheme, tuples: r.tuples[:n:n]}
}

// Fingerprint returns a 64-bit content hash over the scheme and every
// tuple, in order. Relations with identical schemes and tuple
// sequences share a fingerprint, whatever their name or object
// identity — the basis for content-addressed D(G) caching. It chains
// the canonical value hashes (value.MixHash64) directly, so no key
// strings are materialized.
func (r *Relation) Fingerprint() uint64 {
	h := value.HashSeed()
	for _, n := range r.scheme.Names() {
		h = value.MixBytes(h, n)
	}
	for _, t := range r.tuples {
		h = value.MixUint64(h, t.Hash64())
	}
	return h
}

// AddValues appends a tuple built from positional values.
func (r *Relation) AddValues(vals ...value.Value) {
	r.Add(NewTuple(r.scheme, vals...))
}

// AddRow appends a tuple built by parsing display strings (see
// value.Parse); convenient for fixtures.
func (r *Relation) AddRow(cells ...string) {
	vals := make([]value.Value, len(cells))
	for i, c := range cells {
		vals[i] = value.Parse(c)
	}
	r.AddValues(vals...)
}

// Contains reports whether the relation contains a tuple Equal to t.
func (r *Relation) Contains(t Tuple) bool {
	for _, u := range r.tuples {
		if u.Equal(t) {
			return true
		}
	}
	return false
}

// Distinct returns a new relation with duplicate tuples removed,
// keeping first occurrences. Dedup is hash-keyed: tuples bucket on
// Hash64 and candidates are confirmed with Equal, so no per-tuple key
// strings are allocated. The rare true hash collision spills into an
// overflow bucket list.
func (r *Relation) Distinct() *Relation {
	out := New(r.Name, r.scheme)
	seen := make(map[uint64]int32, len(r.tuples))
	var over map[uint64][]int32
	for i, t := range r.tuples {
		h := t.Hash64()
		if j, ok := seen[h]; ok {
			if r.tuples[j].Equal(t) {
				continue
			}
			dup := false
			for _, k := range over[h] {
				if r.tuples[k].Equal(t) {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			if over == nil {
				over = map[uint64][]int32{}
			}
			over[h] = append(over[h], int32(i))
		} else {
			seen[h] = int32(i)
		}
		out.Add(t)
	}
	return out
}

// Filter returns a new relation with the tuples for which keep returns
// true.
func (r *Relation) Filter(keep func(Tuple) bool) *Relation {
	out := New(r.Name, r.scheme)
	for _, t := range r.tuples {
		if keep(t) {
			out.Add(t)
		}
	}
	return out
}

// Project returns a new relation projected onto the given attributes
// (duplicates retained; compose with Distinct for set projection).
func (r *Relation) Project(names ...string) *Relation {
	s := r.scheme.Project(names...)
	out := New(r.Name, s)
	for _, t := range r.tuples {
		out.Add(t.Project(s))
	}
	return out
}

// Rename returns a new relation over a scheme with renamed attributes;
// rename maps old qualified names to new qualified names. Attributes
// not in the map keep their names.
func (r *Relation) Rename(name string, rename map[string]string) *Relation {
	names := make([]string, r.scheme.Arity())
	for i, n := range r.scheme.Names() {
		if nn, ok := rename[n]; ok {
			names[i] = nn
		} else {
			names[i] = n
		}
	}
	s := NewScheme(names...)
	out := New(name, s)
	for _, t := range r.tuples {
		out.Add(Tuple{scheme: s, vals: t.vals})
	}
	return out
}

// Clone returns a deep-enough copy (tuples are immutable, so the tuple
// slice is copied but tuples are shared).
func (r *Relation) Clone() *Relation {
	out := New(r.Name, r.scheme)
	out.tuples = append([]Tuple(nil), r.tuples...)
	out.version = r.version
	return out
}

// SortByKey sorts the relation's tuples in place by canonical key.
// Every D(G) producer (any algorithm, delta maintenance) sorts its
// result this way, so live, replayed, and delta-maintained sessions
// render byte-identical views.
//
// All keys are appended into one shared buffer and compared as byte
// spans, so the sort performs O(1) allocations instead of one key
// string per tuple. The canonical per-value encodings are prefix-free,
// which makes concatenated-key byte order equal to element-wise key
// order; and because Key is injective on tuple content, equal keys are
// identical tuples, so an unstable sort still yields a deterministic
// tuple sequence.
func (r *Relation) SortByKey() {
	n := len(r.tuples)
	if n > 1 {
		type kspan struct {
			off, end int32
			row      int32
		}
		buf := make([]byte, 0, n*16)
		spans := make([]kspan, n)
		for i, t := range r.tuples {
			off := int32(len(buf))
			buf = t.AppendKey(buf)
			spans[i] = kspan{off: off, end: int32(len(buf)), row: int32(i)}
		}
		slices.SortFunc(spans, func(a, b kspan) int {
			return bytes.Compare(buf[a.off:a.end], buf[b.off:b.end])
		})
		scratch := make([]Tuple, n)
		copy(scratch, r.tuples)
		for i, sp := range spans {
			r.tuples[i] = scratch[sp.row]
		}
	}
	// Tuple order changed without a version bump, so the derived-state
	// cache (columnar view) cannot detect staleness by version alone.
	r.invalidateDerived()
}

// Sorted returns a new relation with tuples sorted by their canonical
// keys; useful for deterministic golden output.
func (r *Relation) Sorted() *Relation {
	out := r.Clone()
	sort.SliceStable(out.tuples, func(i, j int) bool {
		return out.tuples[i].Key() < out.tuples[j].Key()
	})
	return out
}

// EqualSet reports whether two relations contain the same set of
// tuples (ignoring order and duplicates). Schemes must have the same
// attribute set; value comparison is positional after aligning
// attribute order.
func (r *Relation) EqualSet(o *Relation) bool {
	if !r.scheme.SameSet(o.scheme) {
		return false
	}
	aligned := o
	if !r.scheme.Equal(o.scheme) {
		aligned = o.Project(r.scheme.Names()...)
	}
	a := map[string]struct{}{}
	for _, t := range r.tuples {
		a[t.Key()] = struct{}{}
	}
	b := map[string]struct{}{}
	for _, t := range aligned.tuples {
		b[t.Key()] = struct{}{}
	}
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

// String renders the relation with a header row; see also
// internal/render for aligned output.
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s%v: %d tuples\n", r.Name, r.scheme, r.Len())
	for _, t := range r.tuples {
		b.WriteString("  ")
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}
