package core

import (
	"sort"
	"strings"

	"clio/internal/relation"
)

// Requirement kinds: what a sufficient illustration must demonstrate,
// per Definitions 4.2, 4.4, and 4.5. MissingRequirements renders a
// requirement as kind|category, or kind|category|attribute for the
// correspondence kinds.
const (
	reqGraph       = "G"  // some example with this coverage
	reqFilterPos   = "F+" // a positive example with this coverage
	reqFilterNeg   = "F-" // a negative example with this coverage
	reqCorrNonNull = "V+" // positive example, target attr non-null
	reqCorrNull    = "V0" // positive example, target attr null
)

// Each coverage category owns one block of requirement ids: G, F+, F-,
// then V+ and V0 for every target attribute in scheme order.
const (
	slotGraph = iota
	slotFilterPos
	slotFilterNeg
	slotCorr // V+ of attribute j at slotCorr+2j, V0 at slotCorr+2j+1
)

// Requirement states in reqIndex.state.
const (
	reqAbsent uint8 = iota // no example witnesses it: not required
	reqOpen                // required, no chosen example covers it yet
	reqMet                 // required and covered
)

// reqIndex numbers the requirements of one mapping densely as int32
// ids, interning each coverage category once, and records the ids
// every indexed example covers. A requirement exists only if some
// indexed example covers it ("if there exists ... then I contains
// ..."). It carries the greedy cover's state, so one index serves one
// selection.
type reqIndex struct {
	ts     *relation.Scheme
	same   *relation.Scheme // a scheme seen Equal to ts: positional reads
	stride int32
	cats   []string           // category key (fd.CoverageKey) by category id
	byHash map[uint64][]int32 // category ids by joinedHash of their key
	ids    []int32            // covered requirement ids, example by example
	off    []int32            // example i covers ids[off[i]:off[i+1]]
	state  []uint8            // by requirement id
	open   int                // requirements in state reqOpen
}

// indexRequirements numbers the requirements the examples witness.
func indexRequirements(m *Mapping, examples []Example) *reqIndex {
	ts := m.TargetScheme()
	r := &reqIndex{
		ts:     ts,
		stride: int32(slotCorr + 2*ts.Arity()),
		byHash: map[uint64][]int32{},
		off:    make([]int32, 1, len(examples)+1),
	}
	for _, e := range examples {
		r.ids = r.appendIDs(r.ids, e, true)
		r.off = append(r.off, int32(len(r.ids)))
	}
	r.state = make([]uint8, int32(len(r.cats))*r.stride)
	for _, id := range r.ids {
		if r.state[id] == reqAbsent {
			r.state[id] = reqOpen
			r.open++
		}
	}
	return r
}

// appendIDs appends the ids of the requirements e covers. With add
// false an example of a category the index has not seen covers
// nothing (no indexed example witnesses its requirements).
func (r *reqIndex) appendIDs(dst []int32, e Example, add bool) []int32 {
	c, ok := r.category(e.Coverage, add)
	if !ok {
		return dst
	}
	base := c * r.stride
	dst = append(dst, base+slotGraph)
	if !e.Positive {
		return append(dst, base+slotFilterNeg)
	}
	dst = append(dst, base+slotFilterPos)
	if s := e.Target.Scheme(); s != r.same && s.Equal(r.ts) {
		r.same = s
	}
	positional := e.Target.Scheme() == r.same
	for j, attr := range r.ts.Names() {
		var null bool
		if positional {
			null = e.Target.At(j).IsNull()
		} else {
			null = e.Target.Get(attr).IsNull()
		}
		slot := int32(slotCorr + 2*j)
		if null {
			slot++
		}
		dst = append(dst, base+slot)
	}
	return dst
}

// category returns the id of the coverage category of cov, interning
// it when add is set. Categories are identified by their
// fd.CoverageKey; a sorted coverage is matched against the interned
// keys by hash and byte comparison, without building its key.
func (r *reqIndex) category(cov []string, add bool) (int32, bool) {
	if !sort.StringsAreSorted(cov) {
		cov = append([]string(nil), cov...)
		sort.Strings(cov)
	}
	h := joinedHash(cov)
	for _, c := range r.byHash[h] {
		if joinedEqual(r.cats[c], cov) {
			return c, true
		}
	}
	if !add {
		return 0, false
	}
	c := int32(len(r.cats))
	r.cats = append(r.cats, strings.Join(cov, "+"))
	r.byHash[h] = append(r.byHash[h], c)
	return c, true
}

// joinedHash is the FNV-1a hash of strings.Join(parts, "+").
func joinedHash(parts []string) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i, p := range parts {
		if i > 0 {
			h = (h ^ '+') * prime
		}
		for j := 0; j < len(p); j++ {
			h = (h ^ uint64(p[j])) * prime
		}
	}
	return h
}

// joinedEqual reports whether key == strings.Join(parts, "+").
func joinedEqual(key string, parts []string) bool {
	for i, p := range parts {
		if i > 0 {
			if key == "" || key[0] != '+' {
				return false
			}
			key = key[1:]
		}
		if !strings.HasPrefix(key, p) {
			return false
		}
		key = key[len(p):]
	}
	return key == ""
}

// meet marks the requirements ids covers as covered.
func (r *reqIndex) meet(ids []int32) {
	for _, id := range ids {
		if r.state[id] == reqOpen {
			r.state[id] = reqMet
			r.open--
		}
	}
}

// covers returns the requirement ids of indexed example i.
func (r *reqIndex) covers(i int) []int32 { return r.ids[r.off[i]:r.off[i+1]] }

// cover runs the greedy set cover: while a requirement is open, it
// chooses the unchosen example covering the most open requirements
// (the lowest index on ties), marks its requirements covered, and
// passes its index to pick.
func (r *reqIndex) cover(chosen []bool, pick func(i int)) {
	for r.open > 0 {
		best, bestGain := -1, 0
		for i := range chosen {
			if chosen[i] {
				continue
			}
			gain := 0
			for _, id := range r.covers(i) {
				if r.state[id] == reqOpen {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			return // unreachable: every requirement is witnessed by construction
		}
		chosen[best] = true
		r.meet(r.covers(best))
		pick(best)
	}
}

// key renders requirement id in MissingRequirements' form.
func (r *reqIndex) key(id int32) string {
	ck := r.cats[id/r.stride]
	switch slot := id % r.stride; slot {
	case slotGraph:
		return reqGraph + "|" + ck
	case slotFilterPos:
		return reqFilterPos + "|" + ck
	case slotFilterNeg:
		return reqFilterNeg + "|" + ck
	default:
		kind := reqCorrNonNull
		if (slot-slotCorr)%2 == 1 {
			kind = reqCorrNull
		}
		return kind + "|" + ck + "|" + r.ts.Name(int((slot-slotCorr)/2))
	}
}
