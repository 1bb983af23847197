package relation

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// SubsumeSet maintains the subsumption-maximal tuples of a multiset of
// equal-scheme tuples under single-tuple inserts and deletes. It is the
// incremental counterpart of RemoveSubsumed(r.Distinct()): after any
// sequence of Insert/Delete calls, Rel() equals what a full
// RemoveSubsumed over the surviving multiset would produce.
//
// The structure groups live tuples by null mask, exactly like the batch
// algorithm: a tuple u can only be strictly subsumed by a tuple whose
// mask is a strict superset of u's, matching u on u's non-null
// positions. Each group keeps a hash index on its own positions plus
// lazily built (then incrementally maintained) indexes on subset-mask
// positions, so one insert or delete touches O(groups + matches)
// tuples, not O(n).
//
// Duplicates are collapsed into per-tuple counts, which keeps maximal
// membership well defined for multisets: a tuple stays present until
// its count reaches zero.
type SubsumeSet struct {
	scheme *Scheme
	groups map[string]*ssGroup
	// live holds every live entry ordered by canonical key (keys are
	// injective over tuples, so the order is total and stable). Kept
	// sorted incrementally — one binary search plus a pointer memmove
	// per insert or delete — so Rel() renders with a linear walk
	// instead of re-sorting the whole front on every refresh.
	live []*ssEntry
	// liveNonNull counts live distinct tuples with at least one
	// non-null attribute. The all-null tuple is maximal exactly when
	// this is zero (the batch algorithm's "drop the all-null group
	// whenever any other group exists" rule).
	liveNonNull int
}

// ssGroup holds the live tuples sharing one null mask.
type ssGroup struct {
	mask      Mask
	positions []int
	// entries indexes live tuples by full-tuple hash (bucket+confirm,
	// same discipline as Distinct).
	entries map[uint64][]*ssEntry
	// sub holds hash indexes of this group's tuples keyed on a
	// subset mask's positions — the probe target when a narrower tuple
	// asks "does anything here subsume me?". Built lazily per subset
	// mask, then kept fresh by every add/remove. The group's own
	// positions are one such index (its own mask key), used when a
	// wider tuple demotes or re-checks the tuples it subsumes.
	sub map[string]*ssSubIndex
}

// ssSubIndex is one lazily built projection index of a group.
type ssSubIndex struct {
	positions []int
	buckets   map[uint64][]*ssEntry
}

// ssEntry is one distinct live tuple with its multiset count. The
// canonical key is rendered once at entry creation and cached: entries
// persist across refreshes of a delta-maintained materialization, so
// Rel() pays sort comparisons only — re-rendering ~|D(G)| keys on
// every refresh would dominate the O(delta) maintenance cost.
type ssEntry struct {
	t       Tuple
	key     string
	count   int
	maximal bool
}

// NewSubsumeSet creates an empty set over the scheme.
func NewSubsumeSet(s *Scheme) *SubsumeSet {
	return &SubsumeSet{scheme: s, groups: map[string]*ssGroup{}}
}

// NewSubsumeSetFrom builds in one pass the set that inserting every
// tuple of ts, in order, with Insert would build: the same entries,
// each holding the first occurrence of its tuple, with the same counts,
// maximal flags, live order and non-null tally. Counts and maximal
// flags come from the mask-partitioned kernel behind RemoveSubsumed;
// each group gets only its own-position index (projection indexes are
// built on first use, as after any Insert); every key is rendered once
// and live is sorted once. Schemes wider than 64 attributes insert
// tuple by tuple.
func NewSubsumeSetFrom(s *Scheme, ts []Tuple) *SubsumeSet {
	set := NewSubsumeSet(s)
	if len(ts) == 0 || s.Arity() > 64 {
		for _, t := range ts {
			set.Insert(t)
		}
		return set
	}
	counts := make([]int32, len(ts))
	keep, masks := subsumedKeepBits(tupleRows(ts), counts)
	sizes := map[uint64]int{}
	distinct := 0
	for i, c := range counts {
		if c > 0 {
			sizes[masks[i]]++
			distinct++
		}
	}
	type bulkGroup struct {
		*ssGroup
		own *ssSubIndex
	}
	groups := make(map[uint64]bulkGroup, len(sizes))
	for bits, size := range sizes {
		m := NewMask(s.Arity())
		if len(m.bits) > 0 {
			m.bits[0] = bits
		}
		k := m.Key()
		g := newSSGroup(m, k, size)
		set.groups[k] = g
		groups[bits] = bulkGroup{g, g.sub[k]}
	}
	set.live = make([]*ssEntry, 0, distinct)
	var buf []byte
	for i, t := range ts {
		if counts[i] == 0 {
			continue
		}
		g := groups[masks[i]]
		buf = t.AppendKey(buf[:0])
		e := &ssEntry{t: t, key: string(buf), count: int(counts[i]), maximal: keep[i]}
		h, ph := t.Hash64(), t.HashOn(g.positions)
		g.entries[h] = append(g.entries[h], e)
		g.own.buckets[ph] = append(g.own.buckets[ph], e)
		set.live = append(set.live, e)
		if masks[i] != 0 {
			set.liveNonNull++
		}
	}
	slices.SortFunc(set.live, func(a, b *ssEntry) int { return strings.Compare(a.key, b.key) })
	return set
}

// Len returns the number of distinct live tuples (any count).
func (s *SubsumeSet) Len() int { return len(s.live) }

func (s *SubsumeSet) group(m Mask) *ssGroup {
	k := m.Key()
	g := s.groups[k]
	if g == nil {
		g = newSSGroup(m, k, 0)
		s.groups[k] = g
	}
	return g
}

// newSSGroup returns an empty group for mask m (whose key is k) with
// room for size entries and its own-position index in place.
func newSSGroup(m Mask, k string, size int) *ssGroup {
	positions := m.Ones()
	return &ssGroup{
		mask:      m,
		positions: positions,
		entries:   make(map[uint64][]*ssEntry, size),
		sub:       map[string]*ssSubIndex{k: {positions: positions, buckets: make(map[uint64][]*ssEntry, size)}},
	}
}

// find returns the live entry Equal to t, or nil.
func (g *ssGroup) find(h uint64, t Tuple) *ssEntry {
	for _, e := range g.entries[h] {
		if e.t.Equal(t) {
			return e
		}
	}
	return nil
}

// add registers a new entry in the group's hash index and every
// existing projection index.
func (g *ssGroup) add(h uint64, e *ssEntry) {
	g.entries[h] = append(g.entries[h], e)
	for _, ix := range g.sub {
		ph := e.t.HashOn(ix.positions)
		ix.buckets[ph] = append(ix.buckets[ph], e)
	}
}

// remove unregisters an entry from the hash index and every projection
// index.
func (g *ssGroup) remove(h uint64, e *ssEntry) {
	g.entries[h] = removeEntry(g.entries[h], e)
	if len(g.entries[h]) == 0 {
		delete(g.entries, h)
	}
	for _, ix := range g.sub {
		ph := e.t.HashOn(ix.positions)
		ix.buckets[ph] = removeEntry(ix.buckets[ph], e)
		if len(ix.buckets[ph]) == 0 {
			delete(ix.buckets, ph)
		}
	}
}

// insertLive splices e into the key-ordered live slice.
func (s *SubsumeSet) insertLive(e *ssEntry) {
	i := sort.Search(len(s.live), func(i int) bool { return s.live[i].key >= e.key })
	s.live = append(s.live, nil)
	copy(s.live[i+1:], s.live[i:])
	s.live[i] = e
}

// removeLive drops e from the key-ordered live slice.
func (s *SubsumeSet) removeLive(e *ssEntry) {
	i := sort.Search(len(s.live), func(i int) bool { return s.live[i].key >= e.key })
	if i < len(s.live) && s.live[i] == e {
		s.live = append(s.live[:i], s.live[i+1:]...)
	}
}

func removeEntry(es []*ssEntry, e *ssEntry) []*ssEntry {
	for i, x := range es {
		if x == e {
			es[i] = es[len(es)-1]
			return es[:len(es)-1]
		}
	}
	return es
}

// index returns the group's projection index on the given subset mask,
// building it over the current live entries on first use.
func (g *ssGroup) index(m Mask, positions []int) *ssSubIndex {
	k := m.Key()
	if ix, ok := g.sub[k]; ok {
		return ix
	}
	ix := &ssSubIndex{positions: positions, buckets: map[uint64][]*ssEntry{}}
	for _, es := range g.entries {
		for _, e := range es {
			ph := e.t.HashOn(positions)
			ix.buckets[ph] = append(ix.buckets[ph], e)
		}
	}
	g.sub[k] = ix
	return ix
}

// subsumedBy reports whether any live tuple strictly subsumes t, whose
// group is g. This predicate depends only on the live multiset, never
// on current maximal flags, which is what makes delete-time promotion
// order-independent.
func (s *SubsumeSet) subsumedBy(g *ssGroup, t Tuple) bool {
	if len(g.positions) == 0 {
		return s.liveNonNull > 0
	}
	for _, h := range s.groups {
		if h == g || !h.mask.SupersetOf(g.mask) || h.mask.Equal(g.mask) {
			continue
		}
		ix := h.index(g.mask, g.positions)
		for _, e := range ix.buckets[t.HashOn(g.positions)] {
			if e.t.EqualOn(t, g.positions, g.positions) {
				return true
			}
		}
	}
	return false
}

// eachSubsumed visits every live entry strictly subsumed by t (group g),
// i.e. entries in strict-subset-mask groups matching t on their own
// positions.
func (s *SubsumeSet) eachSubsumed(g *ssGroup, t Tuple, visit func(h *ssGroup, e *ssEntry)) {
	for _, h := range s.groups {
		if h == g || !g.mask.SupersetOf(h.mask) || g.mask.Equal(h.mask) {
			continue
		}
		ix := h.sub[h.mask.Key()]
		for _, e := range ix.buckets[t.HashOn(h.positions)] {
			if e.t.EqualOn(t, h.positions, h.positions) {
				visit(h, e)
			}
		}
	}
}

// Insert adds one occurrence of t to the multiset.
func (s *SubsumeSet) Insert(t Tuple) {
	g := s.group(t.NonNullMask())
	h := t.Hash64()
	if e := g.find(h, t); e != nil {
		e.count++
		return
	}
	e := &ssEntry{t: t, key: t.Key(), count: 1}
	g.add(h, e)
	s.insertLive(e)
	if len(g.positions) > 0 {
		s.liveNonNull++
	}
	e.maximal = !s.subsumedBy(g, t)
	if !e.maximal {
		return
	}
	// A new maximal tuple demotes everything it strictly subsumes
	// (including the all-null entry, whose empty mask every non-empty
	// mask strictly contains).
	s.eachSubsumed(g, t, func(_ *ssGroup, sub *ssEntry) {
		sub.maximal = false
	})
}

// InsertPruning adds one occurrence of t in insert-only accumulation
// mode: a strictly-subsumed arrival is dropped instead of stored, and
// the entries t strictly subsumes are physically evicted and returned,
// so the set's residency tracks its maximal front rather than the full
// distinct multiset. inserted reports whether t now lives in the set
// (false for duplicates, which only bump the existing count, and for
// subsumed arrivals).
//
// Soundness of the pruning: subsumption is transitive, so anything a
// dropped arrival would later have subsumed is also subsumed by
// whichever live tuple dropped it, and anything an evicted entry
// subsumed is subsumed by its evictor — the surviving entries are
// exactly the maximal front at every step. The pruning erases the
// history Delete-time promotion needs, so a set built with
// InsertPruning must not be mixed with Delete-based maintenance
// (delta maintenance keeps using Insert/Delete).
func (s *SubsumeSet) InsertPruning(t Tuple) (displaced []Tuple, inserted bool) {
	g := s.group(t.NonNullMask())
	h := t.Hash64()
	if e := g.find(h, t); e != nil {
		e.count++
		return nil, false
	}
	if s.subsumedBy(g, t) {
		return nil, false
	}
	e := &ssEntry{t: t, key: t.Key(), count: 1, maximal: true}
	g.add(h, e)
	s.insertLive(e)
	if len(g.positions) > 0 {
		s.liveNonNull++
	}
	// Collect first, then remove: eachSubsumed iterates the very
	// buckets removal mutates.
	var victims []*ssEntry
	var homes []*ssGroup
	s.eachSubsumed(g, t, func(h *ssGroup, sub *ssEntry) {
		victims = append(victims, sub)
		homes = append(homes, h)
	})
	for i, v := range victims {
		homes[i].remove(v.t.Hash64(), v)
		s.removeLive(v)
		if len(homes[i].positions) > 0 {
			s.liveNonNull--
		}
		displaced = append(displaced, v.t)
	}
	return displaced, true
}

// Delete removes one occurrence of t from the multiset. It reports an
// inconsistency (tuple not present) via the return value so callers can
// fall back to a rebuild rather than silently diverge.
func (s *SubsumeSet) Delete(t Tuple) bool {
	g := s.groups[t.NonNullMask().Key()]
	if g == nil {
		return false
	}
	h := t.Hash64()
	e := g.find(h, t)
	if e == nil {
		return false
	}
	e.count--
	if e.count > 0 {
		return true
	}
	g.remove(h, e)
	s.removeLive(e)
	if len(g.positions) > 0 {
		s.liveNonNull--
	}
	if !e.maximal {
		return true
	}
	// t was maximal: each tuple it strictly subsumed is promoted iff no
	// other live tuple still subsumes it. The check probes the live
	// multiset directly (not maximal flags), so visit order is
	// irrelevant.
	s.eachSubsumed(g, t, func(h *ssGroup, sub *ssEntry) {
		if !sub.maximal && !s.subsumedBy(h, sub.t) {
			sub.maximal = true
		}
	})
	return true
}

// String renders the set's whole state for diagnostics and
// differential tests: every live entry in key order with its
// canonical key and count, "*" marking the maximal ones, then the
// non-null tally.
func (s *SubsumeSet) String() string {
	var b strings.Builder
	for _, e := range s.live {
		mark := " "
		if e.maximal {
			mark = "*"
		}
		fmt.Fprintf(&b, "%s%v %q x%d\n", mark, e.t, e.key, e.count)
	}
	fmt.Fprintf(&b, "non-null %d\n", s.liveNonNull)
	return b.String()
}

// Rel materializes the current maximal tuples as a relation sorted by
// canonical tuple key. The live slice is maintained in key order, so a
// refresh is one linear walk — no sort, no key rendering. The order
// makes the result independent of maintenance history: a
// delta-maintained set, a freshly rebuilt set, and a replayed session
// all render byte-identical relations.
func (s *SubsumeSet) Rel(name string) *Relation {
	out := New(name, s.scheme)
	for _, e := range s.live {
		if e.maximal {
			out.Add(e.t)
		}
	}
	return out
}
