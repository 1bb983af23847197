package relation

import (
	"math/bits"

	"clio/internal/value"
)

// This file implements the paper's null-aware set operations:
// outer union, subsumption removal, and minimum union
// (Definitions 3.8–3.9). Minimum union is the combining operator of
// the full disjunction D(G), so its performance matters; we provide a
// quadratic reference implementation and a partitioned implementation
// that groups tuples by their non-null mask and probes hash indexes,
// exploiting that a tuple can only be strictly subsumed by a tuple
// whose non-null attribute set is a superset of its own.

// OuterUnion returns the outer union of r1 and r2: both padded with
// nulls to the union scheme, all tuples retained (duplicates removed).
func OuterUnion(name string, r1, r2 *Relation) *Relation {
	s := r1.Scheme().Union(r2.Scheme())
	out := New(name, s)
	for _, t := range r1.Tuples() {
		out.Add(t.PadTo(s))
	}
	for _, t := range r2.Tuples() {
		out.Add(t.PadTo(s))
	}
	return out.Distinct()
}

// MinimumUnion returns the minimum union r1 ⊕ r2 (Definition 3.9): the
// outer union with strictly subsumed tuples removed.
func MinimumUnion(name string, r1, r2 *Relation) *Relation {
	return RemoveSubsumed(OuterUnion(name, r1, r2))
}

// MinimumUnionAll folds MinimumUnion over any number of relations.
// With zero inputs it returns an empty relation over an empty scheme.
// Because subsumption removal is applied once at the end over the full
// union scheme, the result is independent of argument order (the
// paper's ⊕ is commutative and associative on sets of tuples).
func MinimumUnionAll(name string, rels ...*Relation) *Relation {
	if len(rels) == 0 {
		return New(name, NewScheme())
	}
	s := rels[0].Scheme()
	for _, r := range rels[1:] {
		s = s.Union(r.Scheme())
	}
	// Pad columnar: remap each cached columnar view onto the union
	// scheme (zero-copy) and gather into one accumulator batch; only
	// the subsumption front ever materializes as tuples.
	acc := NewBatch(s)
	for _, r := range rels {
		if r.Len() == 0 {
			continue
		}
		acc.AppendBatch(r.Columns().Remapped(s, PadPerm(r.Scheme(), s)))
	}
	return RemoveSubsumedBatch(name, acc)
}

// RemoveSubsumedNaive removes strictly subsumed tuples by comparing
// all pairs. Exact but O(n²·arity); retained as the reference
// implementation and as the baseline for benchmark E2.
func RemoveSubsumedNaive(r *Relation) *Relation {
	tuples := r.Tuples()
	keep := make([]bool, len(tuples))
	for i := range keep {
		keep[i] = true
	}
	for i, t := range tuples {
		for j, u := range tuples {
			if i == j || !keep[i] {
				continue
			}
			if u.StrictlySubsumes(t) {
				keep[i] = false
				break
			}
			// Equal duplicates: keep only the first occurrence.
			if u.Equal(t) && j < i {
				keep[i] = false
				break
			}
		}
	}
	out := New(r.Name, r.Scheme())
	for i, t := range tuples {
		if keep[i] {
			out.Add(t)
		}
	}
	return out
}

// RemoveSubsumed removes strictly subsumed tuples (and duplicates)
// using mask partitioning: tuples are grouped by their non-null mask;
// a tuple t with mask m can only be strictly subsumed by a tuple in a
// group whose mask is a superset of m (strict superset, or the same
// mask with equal values — which is a duplicate, handled separately).
//
// The hot path (arity ≤ 64) runs columnar over the relation's cached
// column view: dedup, null masks, and all subsumption-probe hashes are
// computed from the typed vectors, null masks are plain uint64s, and
// each group builds ONE hash index on its own positions which every
// superset group then scans with a shared hash scratch buffer — so the
// per-(group pair) work allocates nothing. Wider schemes fall back to
// the Mask-keyed row-major implementation.
func RemoveSubsumed(r *Relation) *Relation {
	if r.Scheme().Arity() <= 64 {
		return removeSubsumedColumnar(r)
	}
	return removeSubsumedWide(r)
}

// RemoveSubsumedBatch reduces the visible rows of b (which must carry
// no selection vector) to the subsumption front, materializing only the
// surviving rows — the columnar accumulator's finalize path, where the
// padded multiset exists solely as column vectors.
func RemoveSubsumedBatch(name string, b *Batch) *Relation {
	if b.Scheme().Arity() > 64 {
		tmp := New(name, b.Scheme())
		tmp.AppendBatch(b)
		out := removeSubsumedWide(tmp)
		out.Name = name
		return out
	}
	out := New(name, b.Scheme())
	if b.Len() == 0 {
		return out
	}
	keep := subsumedKeepBits(b)
	sel := make([]int32, 0, b.Len())
	for i := 0; i < b.Len(); i++ {
		if keep[i] {
			sel = append(sel, int32(i))
		}
	}
	out.AppendBatch(b.View(sel))
	return out
}

// removeSubsumedColumnar is the vectorized arity≤64 path; see
// RemoveSubsumed.
func removeSubsumedColumnar(r *Relation) *Relation {
	n := r.Len()
	if n <= 1 {
		return r.Distinct()
	}
	keep := subsumedKeepBits(r.Columns())
	out := New(r.Name, r.Scheme())
	for i := 0; i < n; i++ {
		if keep[i] {
			out.Add(r.At(i))
		}
	}
	return out
}

// subsumedKeepBits computes, over the physical rows of b (which must
// carry no selection vector, so row ids and visible rows coincide, and
// whose arity must not exceed 64), which rows survive duplicate removal
// (first occurrence wins) and strict subsumption removal.
func subsumedKeepBits(b *Batch) []bool {
	n, w := b.n, len(b.cols)

	// Hash every cell once per column up front. Both the dedup pass and
	// the subsumption probes only need internally consistent bucket
	// keys, not the canonical chained hash, so this single column sweep
	// feeds everything below.
	colh := make([]uint64, w*n)
	b.cellHashes(colh)

	// Whole-row hashes combined from the per-column hashes.
	hashes := make([]uint64, n)
	for i := range hashes {
		hashes[i] = 0x9e3779b97f4a7c15
	}
	for c := 0; c < w; c++ {
		ch := colh[c*n : c*n+n]
		for i := range hashes {
			hashes[i] = (hashes[i] ^ ch[i]) * 0x9e3779b97f4a7c15
		}
	}

	// Dedup (first occurrence wins) through an open-addressed table:
	// row hashes bucket into power-of-two slots, candidates confirmed
	// value-wise, and true hash collisions simply keep probing — no
	// overflow structure needed.
	tsize := 1
	for tsize < 2*n {
		tsize <<= 1
	}
	tmask := uint64(tsize - 1)
	slots := make([]int32, tsize) // row+1; 0 = empty
	keep := make([]bool, n)
	distinctRows := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		h := hashes[i]
		idx := h & tmask
		first := int32(i)
		for {
			s := slots[idx]
			if s == 0 {
				slots[idx] = int32(i) + 1
				break
			}
			j := s - 1
			if hashes[j] == h && b.EqualRows(int(j), b, i) {
				first = j
				break
			}
			idx = (idx + 1) & tmask
		}
		if first != int32(i) {
			continue
		}
		keep[i] = true
		distinctRows = append(distinctRows, int32(i))
	}

	// Null masks as plain uint64s.
	masks := make([]uint64, n)
	b.nonNullMasks(distinctRows, masks)

	// Group distinct rows by mask (first-occurrence order).
	type vgroup struct {
		mask      uint64
		rows      []int32
		positions []int
		// index buckets the group's rows by their hash on the group's
		// own positions — the probe target for every superset group.
		index map[uint64][]int32
	}
	gm := make(map[uint64]*vgroup, 16)
	var groups []*vgroup
	for _, row := range distinctRows {
		m := masks[row]
		g := gm[m]
		if g == nil {
			g = &vgroup{mask: m}
			gm[m] = g
			groups = append(groups, g)
		}
		g.rows = append(g.rows, row)
	}

	if len(groups) > 1 {
		// Subsumption probes combine the precomputed per-column hashes
		// with one multiply-xor per position, so the per-(group pair)
		// cost is a few array lookups per row rather than canonical
		// re-hashing.
		var scratch []uint64
		hashOn := func(rows []int32, positions []int, dst []uint64) []uint64 {
			dst = dst[:len(rows)]
			for j, row := range rows {
				h := uint64(0x9e3779b97f4a7c15)
				for _, p := range positions {
					h = (h ^ colh[p*n+int(row)]) * 0x9e3779b97f4a7c15
				}
				dst[j] = h
			}
			return dst
		}
		for _, g := range groups {
			if g.mask == 0 {
				// All-null tuples are strictly subsumed by any other
				// tuple; any second group implies one exists.
				for _, row := range g.rows {
					keep[row] = false
				}
				continue
			}
			for m := g.mask; m != 0; m &= m - 1 {
				g.positions = append(g.positions, bits.TrailingZeros64(m))
			}
			gh := make([]uint64, len(g.rows))
			hashOn(g.rows, g.positions, gh)
			g.index = make(map[uint64][]int32, len(g.rows))
			for j, row := range g.rows {
				g.index[gh[j]] = append(g.index[gh[j]], row)
			}
			// Scan every strict-superset group's rows against g's index:
			// a match strictly subsumes the g row it hits.
			for _, h := range groups {
				if h == g || h.mask&g.mask != g.mask || h.mask == g.mask {
					continue
				}
				if cap(scratch) < len(h.rows) {
					scratch = make([]uint64, len(h.rows))
				}
				hh := hashOn(h.rows, g.positions, scratch[:len(h.rows)])
				for j, hrow := range h.rows {
					for _, grow := range g.index[hh[j]] {
						if keep[grow] && b.EqualRowsOn(int(hrow), b, int(grow), g.positions, g.positions) {
							keep[grow] = false
						}
					}
				}
			}
		}
	}
	return keep
}

func (b *Batch) cellHashes(colh []uint64) {
	n := b.n
	allRows := make([]int32, n)
	for i := range allRows {
		allRows[i] = int32(i)
	}
	for c := range b.cols {
		dst := colh[c*n : c*n+n]
		for j := range dst {
			dst[j] = value.HashSeed()
		}
		b.cols[c].mixHashInto(dst, allRows)
	}
}

func (b *Batch) nonNullMasks(rows []int32, masks []uint64) {
	for c := range b.cols {
		col := &b.cols[c]
		bit := uint64(1) << uint(c)
		for _, row := range rows {
			if !col.IsNull(int(row)) {
				masks[row] |= bit
			}
		}
	}
}

// removeSubsumedWide is the Mask-keyed row-major fallback for schemes
// wider than 64 attributes.
func removeSubsumedWide(r *Relation) *Relation {
	r = r.Distinct()
	tuples := r.Tuples()
	if len(tuples) <= 1 {
		return r.Clone()
	}

	type group struct {
		mask Mask
		rows []int
		// indexes maps a subset-mask key to a hash index of the group's
		// tuples projected onto that subset's positions: 64-bit value
		// hash → candidate rows, confirmed with EqualOn on probe.
		indexes map[string]map[uint64][]int32
	}
	groups := map[string]*group{}
	var order []string
	for i, t := range tuples {
		m := t.NonNullMask()
		k := m.Key()
		g := groups[k]
		if g == nil {
			g = &group{mask: m, indexes: map[string]map[uint64][]int32{}}
			groups[k] = g
			order = append(order, k)
		}
		g.rows = append(g.rows, i)
	}

	keep := make([]bool, len(tuples))
	for i := range keep {
		keep[i] = true
	}

	for _, gk := range order {
		g := groups[gk]
		positions := g.mask.Ones()
		if len(positions) == 0 {
			// All-null tuples are strictly subsumed by any other tuple;
			// drop them whenever any non-empty group exists.
			if len(order) > 1 {
				for _, row := range g.rows {
					keep[row] = false
				}
			}
			continue
		}
		for _, hk := range order {
			if hk == gk {
				continue
			}
			h := groups[hk]
			if !h.mask.SupersetOf(g.mask) {
				continue
			}
			ix := h.indexes[gk]
			if ix == nil {
				ix = make(map[uint64][]int32, len(h.rows))
				for _, row := range h.rows {
					hh := tuples[row].HashOn(positions)
					ix[hh] = append(ix[hh], int32(row))
				}
				h.indexes[gk] = ix
			}
			for _, row := range g.rows {
				if !keep[row] {
					continue
				}
				t := tuples[row]
				for _, cand := range ix[t.HashOn(positions)] {
					if tuples[cand].EqualOn(t, positions, positions) {
						keep[row] = false
						break
					}
				}
			}
		}
	}

	out := New(r.Name, r.Scheme())
	for i, t := range tuples {
		if keep[i] {
			out.Add(t)
		}
	}
	return out
}
