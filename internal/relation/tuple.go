package relation

import (
	"strings"

	"clio/internal/value"
)

// Tuple is an assignment of values to the attributes of a Scheme,
// stored positionally.
type Tuple struct {
	scheme *Scheme
	vals   []value.Value
}

// NewTuple builds a tuple over the scheme from positional values. It
// panics if the arity does not match.
func NewTuple(s *Scheme, vals ...value.Value) Tuple {
	if len(vals) != s.Arity() {
		panic("relation: tuple arity mismatch")
	}
	return Tuple{scheme: s, vals: append([]value.Value(nil), vals...)}
}

// NewTupleMap builds a tuple from an attribute→value map; attributes
// absent from the map are null.
func NewTupleMap(s *Scheme, m map[string]value.Value) Tuple {
	vals := make([]value.Value, s.Arity())
	for name, v := range m {
		i := s.Index(name)
		if i < 0 {
			panic("relation: NewTupleMap: unknown attribute " + name)
		}
		vals[i] = v
	}
	return Tuple{scheme: s, vals: vals}
}

// AllNull returns a tuple that is null on every attribute of s.
func AllNull(s *Scheme) Tuple {
	return Tuple{scheme: s, vals: make([]value.Value, s.Arity())}
}

// Scheme returns the tuple's scheme.
func (t Tuple) Scheme() *Scheme { return t.scheme }

// At returns the value at position i.
func (t Tuple) At(i int) value.Value { return t.vals[i] }

// Get returns the value of the named attribute; it panics if the
// attribute is absent.
func (t Tuple) Get(name string) value.Value {
	i := t.scheme.Index(name)
	if i < 0 {
		panic("relation: tuple has no attribute " + name)
	}
	return t.vals[i]
}

// Lookup returns the value of the named attribute and whether the
// attribute exists.
func (t Tuple) Lookup(name string) (value.Value, bool) {
	i := t.scheme.Index(name)
	if i < 0 {
		return value.Null, false
	}
	return t.vals[i], true
}

// IsAllNull reports whether every attribute of the tuple is null.
func (t Tuple) IsAllNull() bool {
	for _, v := range t.vals {
		if !v.IsNull() {
			return false
		}
	}
	return true
}

// NonNullMask returns a bitmask (little-endian, 64 attrs per word) of
// the non-null positions.
func (t Tuple) NonNullMask() Mask {
	m := NewMask(len(t.vals))
	for i, v := range t.vals {
		if !v.IsNull() {
			m.Set(i)
		}
	}
	return m
}

// Equal reports whether two tuples have equal schemes and identical
// values (null equal to null).
func (t Tuple) Equal(o Tuple) bool {
	if !t.scheme.Equal(o.scheme) {
		return false
	}
	for i, v := range t.vals {
		if !v.Equal(o.vals[i]) {
			return false
		}
	}
	return true
}

// Subsumes reports whether t subsumes o per Definition 3.8: same
// scheme, and t[A] = o[A] for every attribute A where o[A] is not
// null. (t may additionally be non-null where o is null.)
func (t Tuple) Subsumes(o Tuple) bool {
	if !t.scheme.Equal(o.scheme) {
		return false
	}
	for i, ov := range o.vals {
		if ov.IsNull() {
			continue
		}
		if !t.vals[i].Equal(ov) {
			return false
		}
	}
	return true
}

// StrictlySubsumes reports whether t subsumes o and t ≠ o
// (Definition 3.8).
func (t Tuple) StrictlySubsumes(o Tuple) bool {
	return t.Subsumes(o) && !t.Equal(o)
}

// Project returns a new tuple over the projected scheme. The returned
// tuple shares no storage with t.
func (t Tuple) Project(s *Scheme) Tuple {
	vals := make([]value.Value, s.Arity())
	for i, n := range s.Names() {
		j := t.scheme.Index(n)
		if j < 0 {
			panic("relation: projecting tuple on missing attribute " + n)
		}
		vals[i] = t.vals[j]
	}
	return Tuple{scheme: s, vals: vals}
}

// PadTo returns a tuple over the wider scheme s, carrying t's values
// for shared attributes and null elsewhere.
func (t Tuple) PadTo(s *Scheme) Tuple {
	vals := make([]value.Value, s.Arity())
	for i, n := range s.Names() {
		if j := t.scheme.Index(n); j >= 0 {
			vals[i] = t.vals[j]
		}
	}
	return Tuple{scheme: s, vals: vals}
}

// Concat returns the concatenation of t and o over the concatenated
// scheme.
func (t Tuple) Concat(o Tuple) Tuple {
	s := t.scheme.Concat(o.scheme)
	vals := make([]value.Value, 0, s.Arity())
	vals = append(vals, t.vals...)
	vals = append(vals, o.vals...)
	return Tuple{scheme: s, vals: vals}
}

// Key returns a canonical encoding of the whole tuple, usable for
// duplicate elimination. Tuples with equal schemes and Equal values
// share a key. Value encodings are self-delimiting (value.Key), so
// same-arity tuples cannot collide by moving bytes across value
// boundaries. Hot paths use Hash64 instead; Key remains for sorted
// golden output and debugging.
func (t Tuple) Key() string {
	var b strings.Builder
	for _, v := range t.vals {
		b.WriteString(v.Key())
	}
	return b.String()
}

// AppendKey appends the tuple's canonical key (the same bytes Key
// returns) to dst and returns the extended slice, letting callers
// batch many keys into one buffer with no per-tuple string.
func (t Tuple) AppendKey(dst []byte) []byte {
	for _, v := range t.vals {
		dst = v.AppendKey(dst)
	}
	return dst
}

// KeyOn returns a canonical encoding of the values at the given
// positions. Hot paths use HashOn instead.
func (t Tuple) KeyOn(positions []int) string {
	var b strings.Builder
	for _, p := range positions {
		b.WriteString(t.vals[p].Key())
	}
	return b.String()
}

// Hash64 returns the canonical 64-bit hash of the whole tuple: the
// chained value hashes. Tuples with Equal values share a hash; it
// allocates nothing. Callers confirm candidate equality with Equal.
func (t Tuple) Hash64() uint64 {
	h := value.HashSeed()
	for _, v := range t.vals {
		h = v.MixHash64(h)
	}
	return h
}

// HashOn returns the canonical 64-bit hash of the values at the given
// positions — the hash-join and index key. It allocates nothing.
func (t Tuple) HashOn(positions []int) uint64 {
	h := value.HashSeed()
	for _, p := range positions {
		h = t.vals[p].MixHash64(h)
	}
	return h
}

// EqualOn reports whether t at positions pos equals o at positions
// opos, value by value (null equal to null). It is the equality
// confirmation behind every hash-keyed bucket: two tuples with the
// same HashOn are only treated as matching when EqualOn agrees.
func (t Tuple) EqualOn(o Tuple, pos, opos []int) bool {
	if len(pos) != len(opos) {
		return false
	}
	for i, p := range pos {
		if !t.vals[p].Equal(o.vals[opos[i]]) {
			return false
		}
	}
	return true
}

// cellBytes is what a resource budget charges per cell, before any
// string payload: the size of one value.Value with padding. It must
// be at least that size, so a charge may over-count a cell but never
// under-count one; a smaller value layout may keep the charge as is.
const cellBytes = 48

// ApproxBytes estimates the resident memory of the tuple: the value
// slice plus string payloads. Resource budgets charge this per
// materialized tuple, so it errs on the cheap side (shared schemes
// and interned strings are not double-counted).
func (t Tuple) ApproxBytes() int64 {
	n := int64(len(t.vals)) * cellBytes
	for _, v := range t.vals {
		if v.Kind() == value.KindString {
			n += int64(len(v.Str()))
		}
	}
	return n
}

// String renders the tuple as [a:1 b:- c:x].
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, v := range t.vals {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(t.scheme.Name(i))
		b.WriteByte(':')
		b.WriteString(v.String())
	}
	b.WriteByte(']')
	return b.String()
}

// Mask is a fixed-size bitset over attribute positions.
type Mask struct {
	bits []uint64
	n    int
}

// NewMask creates a mask for n positions, all clear.
func NewMask(n int) Mask {
	return Mask{bits: make([]uint64, (n+63)/64), n: n}
}

// Set marks position i.
func (m Mask) Set(i int) { m.bits[i/64] |= 1 << (uint(i) % 64) }

// Has reports whether position i is set.
func (m Mask) Has(i int) bool { return m.bits[i/64]&(1<<(uint(i)%64)) != 0 }

// SupersetOf reports whether m's set positions include all of o's.
func (m Mask) SupersetOf(o Mask) bool {
	for i, w := range o.bits {
		var mw uint64
		if i < len(m.bits) {
			mw = m.bits[i]
		}
		if w&^mw != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether two masks have the same set positions.
func (m Mask) Equal(o Mask) bool {
	n := len(m.bits)
	if len(o.bits) > n {
		n = len(o.bits)
	}
	for i := 0; i < n; i++ {
		var a, b uint64
		if i < len(m.bits) {
			a = m.bits[i]
		}
		if i < len(o.bits) {
			b = o.bits[i]
		}
		if a != b {
			return false
		}
	}
	return true
}

// Key returns a map key identifying the mask.
func (m Mask) Key() string {
	var b strings.Builder
	for _, w := range m.bits {
		for k := 0; k < 8; k++ {
			b.WriteByte(byte(w >> (8 * k)))
		}
	}
	return b.String()
}

// Ones returns the set positions in increasing order.
func (m Mask) Ones() []int {
	var out []int
	for i := 0; i < m.n; i++ {
		if m.Has(i) {
			out = append(out, i)
		}
	}
	return out
}

// Count returns the number of set positions.
func (m Mask) Count() int {
	c := 0
	for i := 0; i < m.n; i++ {
		if m.Has(i) {
			c++
		}
	}
	return c
}
