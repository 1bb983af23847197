// Package discovery implements Clio's source-knowledge mining
// (Section 5.1: "knowledge of the source schema ... gathered from
// schema and constraint definitions and from mining the source
// data"): column profiling, candidate-key detection, inclusion-
// dependency discovery, foreign-key proposal, and the inverted value
// index that powers the data chase (Section 5.2).
package discovery

import (
	"context"
	"slices"
	"sort"
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
	type colSet struct {
		ref  schema.ColumnRef
		rel  string
		vals map[string]struct{}
	}
	var cols []colSet
	for _, r := range in.Relations() {
		for _, qn := range r.Scheme().Names() {
			ref, err := schema.ParseColumnRef(qn)
			if err != nil {
				continue
			}
			pos := r.Scheme().Index(qn)
			set := map[string]struct{}{}
			for _, t := range r.Tuples() {
				if v := t.At(pos); !v.IsNull() {
					set[v.Key()] = struct{}{}
				}
			}
			if len(set) > 0 {
				cols = append(cols, colSet{ref: ref, rel: r.Name, vals: set})
			}
		}
	}
	span.SetInt("columns", int64(len(cols)))
	var out []IND
	var pairs int64
	for i, from := range cols {
		for j, to := range cols {
			if i == j || from.rel == to.rel {
				continue
			}
			pairs++
			hits := 0
			for k := range from.vals {
				if _, ok := to.vals[k]; ok {
					hits++
				}
			}
			overlap := float64(hits) / float64(len(from.vals))
			if hits > 0 && overlap >= minOverlap {
				out = append(out, IND{From: from.ref, To: to.ref, Overlap: overlap})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Overlap != out[j].Overlap {
			return out[i].Overlap > out[j].Overlap
		}
		if out[i].From.String() != out[j].From.String() {
			return out[i].From.String() < out[j].From.String()
		}
		return out[i].To.String() < out[j].To.String()
	})
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
// value occur?" in O(1) per value. ApplyRow keeps it current under row
// edits; it must not run concurrently with other calls on the index.
type ValueIndex struct {
	occ map[string][]Occurrence
	// scanFallback is set when the index build was degraded by an
	// injected fault: lookups fall back to a full instance scan, so
	// answers stay correct at reduced speed.
	scanFallback *relation.Instance
}

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
		return &ValueIndex{scanFallback: in}
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

// ApplyRow folds one row edit into the occurrence counts: t was
// inserted into (del=false) or deleted from (del=true) the relation
// its scheme describes. Updates are copy-on-write, so a slice that
// Occurrences returned earlier never changes. A value's last
// occurrence leaves the index. The scan-fallback index reads the live
// instance and needs nothing.
func (ix *ValueIndex) ApplyRow(t relation.Tuple, del bool) {
	if ix.scanFallback != nil {
		return
	}
	for pos, qn := range t.Scheme().Names() {
		v := t.At(pos)
		if v.IsNull() {
			continue
		}
		ref, err := schema.ParseColumnRef(qn)
		if err != nil {
			continue
		}
		k, col := v.Key(), ref.String()
		old := ix.occ[k]
		i := sort.Search(len(old), func(i int) bool { return old[i].Column.String() >= col })
		found := i < len(old) && old[i].Column == ref
		occ := slices.Clone(old)
		switch {
		case found && del:
			if occ[i].Count--; occ[i].Count == 0 {
				occ = slices.Delete(occ, i, i+1)
			}
		case found:
			occ[i].Count++
		case !del:
			occ = slices.Insert(occ, i, Occurrence{Column: ref, Count: 1})
		default:
			continue // nothing recorded to remove
		}
		if len(occ) == 0 {
			delete(ix.occ, k)
		} else {
			ix.occ[k] = occ
		}
	}
}

// OccurrencesScan finds the columns containing v by scanning the whole
// instance; the unindexed baseline for benchmark E5.
func OccurrencesScan(in *relation.Instance, v value.Value) []Occurrence {
	if v.IsNull() {
		return nil
	}
	var out []Occurrence
	for _, r := range in.Relations() {
		for pos, qn := range r.Scheme().Names() {
			ref, err := schema.ParseColumnRef(qn)
			if err != nil {
				continue
			}
			n := 0
			for _, t := range r.Tuples() {
				if t.At(pos).Equal(v) {
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
