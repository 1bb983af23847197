// Package discovery implements Clio's source-knowledge mining
// (Section 5.1: "knowledge of the source schema ... gathered from
// schema and constraint definitions and from mining the source
// data"): column profiling, candidate-key detection, inclusion-
// dependency discovery, foreign-key proposal, and the inverted value
// index that powers the data chase (Section 5.2).
package discovery

import (
	"cmp"
	"context"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"time"

	"clio/internal/fault"
	"clio/internal/obs"
	"clio/internal/relation"
	"clio/internal/schema"
	"clio/internal/value"
)

// Mining instrumentation: column-pair comparisons during IND
// discovery, mined dependencies, and value-index build stats.
var (
	cINDPairs      = obs.GetCounter("discovery.ind.pairs")
	cINDsMined     = obs.GetCounter("discovery.ind.mined")
	cIndexValues   = obs.GetCounter("discovery.value_index.values")
	cMineDegraded  = obs.GetCounter("discovery.ind.degraded")
	cIndexDegraded = obs.GetCounter("discovery.value_index.degraded")
	hINDMineNS     = obs.GetHistogram("discovery.ind.mine.ns")
	hIndexNS       = obs.GetHistogram("discovery.value_index.build.ns")
)

// ColumnStats summarizes one column of a relation instance.
type ColumnStats struct {
	Column   schema.ColumnRef
	Rows     int
	Nulls    int
	Distinct int
	// Unique reports whether the non-null values are pairwise distinct
	// and no nulls occur — a candidate key of the relation.
	Unique bool
}

// ProfileColumn computes statistics for one column (by qualified
// attribute name) of r.
func ProfileColumn(r *relation.Relation, qualified string) ColumnStats {
	ref, err := schema.ParseColumnRef(qualified)
	if err != nil {
		ref = schema.ColumnRef{Relation: r.Name, Attr: qualified}
	}
	st := ColumnStats{Column: ref, Rows: r.Len()}
	seen := map[string]struct{}{}
	pos := r.Scheme().Index(qualified)
	if pos < 0 {
		return st
	}
	for _, t := range r.Tuples() {
		v := t.At(pos)
		if v.IsNull() {
			st.Nulls++
			continue
		}
		seen[v.Key()] = struct{}{}
	}
	st.Distinct = len(seen)
	st.Unique = st.Nulls == 0 && st.Distinct == st.Rows && st.Rows > 0
	return st
}

// Profile computes statistics for every column of every relation in
// the instance, in deterministic order.
func Profile(in *relation.Instance) []ColumnStats {
	var out []ColumnStats
	for _, r := range in.Relations() {
		for _, qn := range r.Scheme().Names() {
			out = append(out, ProfileColumn(r, qn))
		}
	}
	return out
}

// IND is a unary inclusion dependency From ⊆ To: the fraction Overlap
// of From's distinct non-null values that appear in To.
type IND struct {
	From, To schema.ColumnRef
	// Overlap is in (0, 1]; 1 means full inclusion.
	Overlap float64
}

// DiscoverINDs finds inclusion dependencies between columns of
// different relations whose overlap is at least minOverlap
// (0 < minOverlap ≤ 1). Columns with no non-null values are skipped.
// Results are sorted by descending overlap, then lexicographically.
func DiscoverINDs(ctx context.Context, in *relation.Instance, minOverlap float64) []IND {
	_, span := obs.StartSpan(ctx, "discovery.mine_inds")
	defer span.End()
	// Mining is best-effort enrichment on top of declared constraints,
	// so an injected mining fault degrades to "nothing mined" — loudly,
	// via the span attribute and counter — rather than failing callers
	// that can proceed on declared knowledge alone.
	if err := fault.Inject("discovery.mine_inds"); err != nil {
		cMineDegraded.Inc()
		span.SetBool("degraded", true)
		return nil
	}
	start := time.Now()
	defer hINDMineNS.ObserveSince(start)
	// SPIDER-style unary IND test (Bauckmann et al., ICDE 2007): every
	// distinct value gets one dense id, each column becomes the bitset
	// of its ids, and a pair's hits are the size of an intersection.
	type column struct {
		ref  schema.ColumnRef
		name string // ref.String(), the sort key
		rel  string
		ids  []int32 // one per non-null cell, duplicates included
		lo   int     // first bitset word the column's ids reach
		set  []uint64
		n    int // distinct non-null values
	}
	it := newInterner()
	var cols []column
	for _, r := range in.Relations() {
		for pos, qn := range r.Scheme().Names() {
			ref, err := schema.ParseColumnRef(qn)
			if err != nil {
				continue
			}
			var ids []int32
			for _, t := range r.Tuples() {
				if v := t.At(pos); !v.IsNull() {
					ids = append(ids, it.id(v))
				}
			}
			if len(ids) > 0 {
				cols = append(cols, column{ref: ref, name: ref.String(), rel: r.Name, ids: ids})
			}
		}
	}
	for i := range cols {
		c := &cols[i]
		lo, hi := int(slices.Min(c.ids)>>6), int(slices.Max(c.ids)>>6)
		c.lo, c.set = lo, make([]uint64, hi-lo+1)
		for _, id := range c.ids {
			c.set[int(id>>6)-lo] |= 1 << (id & 63)
		}
		for _, w := range c.set {
			c.n += bits.OnesCount64(w)
		}
		c.ids = nil
	}
	span.SetInt("columns", int64(len(cols)))
	type found struct {
		from, to *column
		overlap  float64
	}
	var inds []found
	var pairs int64
	for i := range cols {
		from := &cols[i]
		for j := range cols {
			to := &cols[j]
			if i == j || from.rel == to.rel {
				continue
			}
			pairs++
			// hits ≤ |to|, so a pair whose overlap could not reach
			// minOverlap even at full hits is skipped. The division
			// matches the overlap's own, so no pair near the
			// threshold is lost to rounding.
			if float64(to.n)/float64(from.n) < minOverlap {
				continue
			}
			hits := 0
			lo, hi := max(from.lo, to.lo), min(from.lo+len(from.set), to.lo+len(to.set))
			for w := lo; w < hi; w++ {
				hits += bits.OnesCount64(from.set[w-from.lo] & to.set[w-to.lo])
			}
			overlap := float64(hits) / float64(from.n)
			if hits > 0 && overlap >= minOverlap {
				inds = append(inds, found{from: from, to: to, overlap: overlap})
			}
		}
	}
	slices.SortFunc(inds, func(a, b found) int {
		if a.overlap != b.overlap {
			return cmp.Compare(b.overlap, a.overlap)
		}
		if c := strings.Compare(a.from.name, b.from.name); c != 0 {
			return c
		}
		return strings.Compare(a.to.name, b.to.name)
	})
	var out []IND
	for _, f := range inds {
		out = append(out, IND{From: f.from.ref, To: f.to.ref, Overlap: f.overlap})
	}
	cINDPairs.Add(pairs)
	cINDsMined.Add(int64(len(out)))
	span.SetInt("pairs", pairs)
	span.SetInt("inds", int64(len(out)))
	return out
}

// ProposeForeignKeys turns full-inclusion INDs whose target column is
// a candidate key into foreign-key proposals — the mined counterpart
// of declared constraints.
func ProposeForeignKeys(in *relation.Instance, inds []IND) []schema.ForeignKey {
	unique := map[string]bool{}
	for _, st := range Profile(in) {
		unique[st.Column.String()] = st.Unique
	}
	var out []schema.ForeignKey
	for _, ind := range inds {
		if ind.Overlap < 1 || !unique[ind.To.String()] {
			continue
		}
		out = append(out, schema.ForeignKey{
			Name:         "mined_" + ind.From.Relation + "_" + ind.From.Attr + "__" + ind.To.Relation + "_" + ind.To.Attr,
			FromRelation: ind.From.Relation,
			FromAttrs:    []string{ind.From.Attr},
			ToRelation:   ind.To.Relation,
			ToAttrs:      []string{ind.To.Attr},
		})
	}
	return out
}

// Occurrence records that a value appears in a column, with its
// multiplicity.
type Occurrence struct {
	Column schema.ColumnRef
	Count  int
}

// ValueIndex is an inverted index from values to the columns that
// contain them; it answers the data chase's "where else does this
// value occur?" in O(1) per value. A built index is a snapshot of the
// instance it was built from; an index made by ScanIndex reads the
// instance as it is at each lookup instead.
type ValueIndex struct {
	occ map[string][]Occurrence
	// scanFallback is set for an index with nothing built (ScanIndex,
	// which a faulted build degrades to): lookups run OccurrencesScan
	// over the live instance.
	scanFallback *relation.Instance
}

// ScanIndex returns an index with nothing built: every lookup scans in
// as it is at that moment, so row edits need no maintenance. Sessions
// chase through it, because at their sizes a scan per chase costs less
// than building the index. A faulted BuildValueIndex degrades to it.
func ScanIndex(in *relation.Instance) *ValueIndex { return &ValueIndex{scanFallback: in} }

// BuildValueIndex indexes every non-null value of every column.
func BuildValueIndex(ctx context.Context, in *relation.Instance) *ValueIndex {
	_, span := obs.StartSpan(ctx, "discovery.build_value_index")
	defer span.End()
	// An injected build fault degrades the index to scan-on-demand:
	// Occurrences answers identically via OccurrencesScan, trading
	// speed for availability instead of returning wrong (empty) hits.
	if err := fault.Inject("discovery.value_index"); err != nil {
		cIndexDegraded.Inc()
		span.SetBool("degraded", true)
		return ScanIndex(in)
	}
	start := time.Now()
	defer hIndexNS.ObserveSince(start)
	ix := &ValueIndex{occ: map[string][]Occurrence{}}
	for _, r := range in.Relations() {
		for pos, qn := range r.Scheme().Names() {
			ref, err := schema.ParseColumnRef(qn)
			if err != nil {
				continue
			}
			counts := map[string]int{}
			for _, t := range r.Tuples() {
				if v := t.At(pos); !v.IsNull() {
					counts[v.Key()]++
				}
			}
			for k, n := range counts {
				ix.occ[k] = append(ix.occ[k], Occurrence{Column: ref, Count: n})
			}
		}
	}
	for k := range ix.occ {
		occ := ix.occ[k]
		sort.Slice(occ, func(i, j int) bool {
			return occ[i].Column.String() < occ[j].Column.String()
		})
	}
	cIndexValues.Add(int64(len(ix.occ)))
	span.SetInt("values", int64(len(ix.occ)))
	span.SetInt("relations", int64(len(in.Relations())))
	return ix
}

// Occurrences returns the columns containing v, sorted by column name.
// Null has no occurrences.
func (ix *ValueIndex) Occurrences(v value.Value) []Occurrence {
	if v.IsNull() {
		return nil
	}
	if ix.scanFallback != nil {
		return OccurrencesScan(ix.scanFallback, v)
	}
	return ix.occ[v.Key()]
}

// OccurrencesScan finds the columns containing v by scanning the whole
// instance; the unindexed baseline for benchmark E5. A cell matches
// when it shares v's Key, so the scan answers exactly as the index.
// For numbers that is float64 equality, not Equal: Equal keeps two
// ints above 2^53 that round to one float64 apart, yet equates each
// with that float.
func OccurrencesScan(in *relation.Instance, v value.Value) []Occurrence {
	if v.IsNull() {
		return nil
	}
	f, num := v.AsFloat()
	var out []Occurrence
	for _, r := range in.Relations() {
		for pos, qn := range r.Scheme().Names() {
			ref, err := schema.ParseColumnRef(qn)
			if err != nil {
				continue
			}
			n := 0
			for _, t := range r.Tuples() {
				if w := t.At(pos); num && sameNumber(f, w) || !num && w.Equal(v) {
					n++
				}
			}
			if n > 0 {
				out = append(out, Occurrence{Column: ref, Count: n})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Column.String() < out[j].Column.String()
	})
	return out
}

// sameNumber reports whether w is a number that shares the Key of the
// number f: keys encode numbers as float64, with NaN matching NaN.
func sameNumber(f float64, w value.Value) bool {
	g, ok := w.AsFloat()
	return ok && (f == g || f != f && g != g)
}

// interner gives every distinct non-null value one dense id, in order
// of first sight. Two values share an id exactly when they share a
// Key: numbers are keyed by the float64 their key encodes (-0 as +0,
// every NaN as one), strings and bools by their datum.
type interner struct {
	nums  map[uint64]int32
	strs  map[string]int32
	bools [2]int32 // id+1 of false and true; 0 while unseen
	n     int32
}

func newInterner() *interner {
	return &interner{nums: map[uint64]int32{}, strs: map[string]int32{}}
}

// id returns v's id, assigning the next one when v is new.
func (it *interner) id(v value.Value) int32 {
	switch v.Kind() {
	case value.KindString:
		if id, ok := it.strs[v.Str()]; ok {
			return id
		}
		it.strs[v.Str()] = it.n
	case value.KindBool:
		b := 0
		if v.BoolVal() {
			b = 1
		}
		if it.bools[b] > 0 {
			return it.bools[b] - 1
		}
		it.bools[b] = it.n + 1
	default:
		f, _ := v.AsFloat()
		if f == 0 {
			f = 0 // -0.0 shares +0.0's key
		}
		bits := math.Float64bits(f)
		if f != f {
			bits = math.Float64bits(math.NaN())
		}
		if id, ok := it.nums[bits]; ok {
			return id
		}
		it.nums[bits] = it.n
	}
	it.n++
	return it.n - 1
}
