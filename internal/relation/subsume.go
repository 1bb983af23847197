package relation

import (
	"slices"
	"sort"
	"strings"
)

// SubsumeSet holds a subsumption front over one scheme: distinct
// tuples none of which strictly subsumes another. Insert keeps it a
// front — an arrival equal to or strictly subsumed by a live tuple is
// dropped, and the live tuples it strictly subsumes are evicted — so
// after any sequence of inserts Rel() equals RemoveSubsumed over
// everything inserted. Delete removes one live tuple and promotes
// nothing in its place: whatever it uncovers is the caller's to
// re-insert.
//
// The structure groups live tuples by null mask, exactly like the batch
// algorithm: a tuple u can only be strictly subsumed by a tuple whose
// mask is a strict superset of u's, matching u on u's non-null
// positions. Each group keeps a hash index on its own positions plus
// lazily built (then incrementally maintained) indexes on subset-mask
// positions, so one insert or delete touches O(groups + matches)
// tuples, not O(n).
type SubsumeSet struct {
	scheme *Scheme
	groups map[string]*ssGroup
	// live holds every live entry ordered by canonical key (keys are
	// injective over tuples, so the order is total and stable). Kept
	// sorted incrementally — one binary search plus a pointer memmove
	// per insert or delete — so Rel() renders with a linear walk
	// instead of re-sorting the whole front on every refresh.
	live []*ssEntry
}

// ssGroup holds the live tuples sharing one null mask.
type ssGroup struct {
	mask      Mask
	positions []int
	// own indexes the group's tuples on its own positions. Tuples of
	// one mask are equal exactly when they agree there, so it is the
	// duplicate check; a wider tuple probes it for the tuples it
	// strictly subsumes.
	own *ssSubIndex
	// sub holds hash indexes of this group's tuples keyed on a subset
	// mask's positions — the probe target when a narrower tuple asks
	// "does anything here subsume me?". Built lazily per subset mask,
	// then kept fresh by every add/remove. own is sub[mask.Key()].
	sub map[string]*ssSubIndex
}

// ssSubIndex is one projection index of a group.
type ssSubIndex struct {
	positions []int
	buckets   map[uint64][]*ssEntry
}

// ssEntry is one live tuple. The canonical key is rendered once at
// entry creation and cached: entries persist across refreshes of a
// delta-maintained D(G), so Rel() pays no key rendering and inserts and
// deletes pay one binary search.
type ssEntry struct {
	t   Tuple
	key string
}

// NewSubsumeSet creates an empty set over the scheme.
func NewSubsumeSet(s *Scheme) *SubsumeSet {
	return &SubsumeSet{scheme: s, groups: map[string]*ssGroup{}}
}

// NewSubsumeSetOf returns the set holding exactly the tuples of front,
// which must already be a front: distinct tuples none of which strictly
// subsumes another (a D(G), say). Nothing is probed: each tuple enters
// its group's own index only (projection indexes are built on first
// use, as after any Insert), every key is rendered once and live is
// sorted once.
func NewSubsumeSetOf(front *Relation) *SubsumeSet {
	s := NewSubsumeSet(front.Scheme())
	ts := front.Tuples()
	entries := make([]ssEntry, len(ts))
	s.live = make([]*ssEntry, len(ts))
	var buf []byte
	for i, t := range ts {
		buf = t.AppendKey(buf[:0])
		e := &entries[i]
		*e = ssEntry{t: t, key: string(buf)}
		s.group(t.NonNullMask()).add(e)
		s.live[i] = e
	}
	slices.SortFunc(s.live, func(a, b *ssEntry) int { return strings.Compare(a.key, b.key) })
	return s
}

// Len returns the number of live tuples.
func (s *SubsumeSet) Len() int { return len(s.live) }

func (s *SubsumeSet) group(m Mask) *ssGroup {
	k := m.Key()
	g := s.groups[k]
	if g == nil {
		positions := m.Ones()
		own := &ssSubIndex{positions: positions, buckets: map[uint64][]*ssEntry{}}
		g = &ssGroup{mask: m, positions: positions, own: own, sub: map[string]*ssSubIndex{k: own}}
		s.groups[k] = g
	}
	return g
}

// find returns the live entry Equal to t, or nil.
func (g *ssGroup) find(t Tuple) *ssEntry {
	for _, e := range g.own.buckets[t.HashOn(g.positions)] {
		if e.t.EqualOn(t, g.positions, g.positions) {
			return e
		}
	}
	return nil
}

// add registers a new entry in every index of the group.
func (g *ssGroup) add(e *ssEntry) {
	for _, ix := range g.sub {
		ph := e.t.HashOn(ix.positions)
		ix.buckets[ph] = append(ix.buckets[ph], e)
	}
}

// remove unregisters an entry from every index of the group.
func (g *ssGroup) remove(e *ssEntry) {
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
	for _, es := range g.own.buckets {
		for _, e := range es {
			ph := e.t.HashOn(positions)
			ix.buckets[ph] = append(ix.buckets[ph], e)
		}
	}
	g.sub[k] = ix
	return ix
}

// subsumedBy reports whether any live tuple strictly subsumes t, whose
// group is g and which is not itself live.
func (s *SubsumeSet) subsumedBy(g *ssGroup, t Tuple) bool {
	if len(g.positions) == 0 {
		// t is the all-null tuple, which every other tuple strictly
		// subsumes, and it is not live: so any live tuple does.
		return len(s.live) > 0
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

// Insert adds t unless a live tuple equals or strictly subsumes it, and
// then evicts and returns every live tuple t strictly subsumes (the
// all-null tuple included, whose empty mask every non-empty mask
// strictly contains). inserted reports whether t now lives in the set.
//
// The set stays a front at every step: subsumption is transitive, so
// anything a dropped arrival subsumes is also subsumed by whichever
// live tuple dropped it, and anything an evicted entry subsumed is
// subsumed by its evictor.
func (s *SubsumeSet) Insert(t Tuple) (displaced []Tuple, inserted bool) {
	g := s.group(t.NonNullMask())
	if g.find(t) != nil || s.subsumedBy(g, t) {
		return nil, false
	}
	// Collect first, then remove: the probe iterates the very buckets
	// removal mutates.
	type victim struct {
		g *ssGroup
		e *ssEntry
	}
	var victims []victim
	for _, h := range s.groups {
		if h == g || !g.mask.SupersetOf(h.mask) || g.mask.Equal(h.mask) {
			continue
		}
		for _, e := range h.own.buckets[t.HashOn(h.positions)] {
			if e.t.EqualOn(t, h.positions, h.positions) {
				victims = append(victims, victim{h, e})
			}
		}
	}
	for _, v := range victims {
		v.g.remove(v.e)
		s.removeLive(v.e)
		displaced = append(displaced, v.e.t)
	}
	e := &ssEntry{t: t, key: t.Key()}
	g.add(e)
	s.insertLive(e)
	return displaced, true
}

// Delete removes t from the set and reports whether it was live. No
// tuple t subsumed is promoted in its place.
func (s *SubsumeSet) Delete(t Tuple) bool {
	g := s.groups[t.NonNullMask().Key()]
	if g == nil {
		return false
	}
	e := g.find(t)
	if e == nil {
		return false
	}
	g.remove(e)
	s.removeLive(e)
	return true
}

// Rel materializes the live tuples as a relation sorted by canonical
// tuple key. The live slice is maintained in key order, so a refresh
// is one linear walk — no sort, no key rendering. The order makes the
// result independent of maintenance history: a delta-maintained set, a
// freshly seeded set, and a replayed session all render byte-identical
// relations.
func (s *SubsumeSet) Rel(name string) *Relation {
	out := New(name, s.scheme)
	out.tuples = make([]Tuple, 0, len(s.live))
	for _, e := range s.live {
		out.Add(e.t)
	}
	return out
}
