package fd

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"clio/internal/algebra"
	"clio/internal/budget"
	"clio/internal/fault"
	"clio/internal/graph"
	"clio/internal/obs"
	"clio/internal/relation"
	"clio/internal/value"
)

// Delta maintenance of D(G) under single-row edits of a base relation.
//
// D(G) is a set: the maximal front of every association of every
// connected subset J. The maintained state is that front alone, in an
// incremental subsumption set (relation.SubsumeSet), seeded in bulk
// from a D(G) already computed (the workspace's, or fd.Compute's on a
// rebuild) — nothing drains connected subsets outside Compute.
//
// The join is multilinear in each relation argument: for a connected
// subset J whose nodes n_1..n_k scan the edited base B,
//
//	F(J)[B ⊎ {δ}] = ∪ over S ⊆ {n_1..n_k} of F(J) with the nodes in S
//	                bound to the singleton {δ} and the rest bound to B.
//
// The S = ∅ term is F(J) without δ, so the associations that involve δ
// are the union of the 2^k − 1 terms with non-empty S. For an insert
// (instance already mutated, δ appended last) the non-S occurrences
// read the pre-edit prefix of B; for a delete (δ already removed) they
// read B as it is now — in both cases every relation the terms touch
// exists concretely, no old-state reconstruction.
//
// An insert adds each association the terms produce, pruning: joins
// are monotone, so the new front is the front of the old one plus the
// new associations. A delete removes each association the terms
// produce from the front and, if that removed any, re-derives what
// they covered (delete-and-rederive, Gupta, Mumick & Subrahmanian,
// SIGMOD 1993) by inserting, with pruning,
//
//	(a) each removed association's projections onto the connected
//	    components of its subset minus the nodes that held δ, and
//	(b) every association of each remaining row of B that δ subsumes,
//	    an equal copy included.
//
// Both are associations of the edited instance. They are enough: an
// association c that becomes maximal was subsumed only by removed
// associations; take a maximal one, a. If c holds a row at a node
// where a held δ, that row is a remaining row δ subsumes, so (b)
// yields c. Otherwise c's nodes, a connected set, lie in one component
// of a's subset minus those nodes, and the projection (a) onto it
// subsumes c, so it is c. The argument needs strong join predicates (a
// node holding an all-NULL row joins nothing), as the paper assumes.
// One association it does not reach is the all-null one, maximal only
// when nothing else is: a delete that empties the front rebuilds.
//
// Cost is O(delta): the bound side of every join term has one tuple
// (or the few rows δ subsumes), so term size is bounded by the rows
// that actually join with them, not by |B|. Degradation is explicit —
// too many connected subsets (MaxDeltaSubsets), too many occurrences
// of B in one subset (maxDeltaOccurrences), or an emptied front — and
// falls back to a rebuild in MaintainRows.

// Delta-vs-rebuild decision counters for row-edit maintenance.
var (
	cDeltaApply   = obs.GetCounter("fd.delta.apply")
	cDeltaRebuild = obs.GetCounter("fd.delta.rebuild")
)

// MaxDeltaSubsets bounds the connected-subset count a materialized
// D(G) will maintain by delta; past it every edit term enumeration
// costs more than it saves and MaintainRows rebuilds instead.
const MaxDeltaSubsets = 256

// maxDeltaOccurrences bounds the occurrences of the edited base within
// one subset (the delta has 2^k − 1 terms in it).
const maxDeltaOccurrences = 8

// errDeltaDegrade marks an edit the delta path refuses (too wide, or a
// delete that emptied the front). MaintainRows treats it as "rebuild
// instead", never as a user-facing failure.
var errDeltaDegrade = errors.New("fd: delta application degraded")

// Materialized is a D(G) kept current under row edits: its maximal
// front, plus the connected subsets and join skeletons the delta terms
// run on.
type Materialized struct {
	scheme  *relation.Scheme
	subsets [][]string
	shapes  []planShape // F(J)'s join skeleton, per subset
	set     *relation.SubsumeSet
	canon   string
	// matched and matchedVer memoize the last graph Matches accepted,
	// so an unchanged graph is not re-rendered on every edit.
	matched    *graph.QueryGraph
	matchedVer uint64
}

// NewMaterialized computes D(G) with Compute, which charges the
// budget as it always does, and seeds a delta-maintainable front from
// it.
func NewMaterialized(ctx context.Context, g *graph.QueryGraph, in *relation.Instance) (*Materialized, error) {
	d, err := Compute(ctx, g, in)
	if err != nil {
		return nil, err
	}
	return seed(ctx, g, d)
}

// seed returns the materialization of g whose front is d, a D(G) of g
// (over the instance as it was when d was computed). It drains nothing
// and charges nothing: the caller has charged d.
func seed(ctx context.Context, g *graph.QueryGraph, d *relation.Relation) (*Materialized, error) {
	if g.NodeCount() == 0 {
		return nil, fmt.Errorf("fd: empty query graph")
	}
	if !g.Connected() {
		return nil, fmt.Errorf("fd: query graph is not connected")
	}
	_, span := obs.StartSpan(ctx, "fd.materialize")
	defer span.End()
	if err := fault.Inject("fd.materialize"); err != nil {
		return nil, err
	}
	subsets := g.ConnectedSubsets()
	span.SetInt("subsets", int64(len(subsets)))
	shapes := make([]planShape, len(subsets))
	for i, sub := range subsets {
		var err error
		if shapes[i], err = spanningShape(g, sub); err != nil {
			return nil, err
		}
	}
	m := &Materialized{
		scheme:     d.Scheme(),
		subsets:    subsets,
		shapes:     shapes,
		set:        relation.NewSubsumeSetOf(d),
		canon:      canonGraph(g),
		matched:    g,
		matchedVer: g.Version(),
	}
	span.SetInt("tuples", int64(m.set.Len()))
	return m, nil
}

// Matches reports whether the materialization was built for a graph
// canonically equal to g (same nodes, bases, and edges).
func (m *Materialized) Matches(g *graph.QueryGraph) bool {
	if m == nil {
		return false
	}
	if m.matched == g && m.matchedVer == g.Version() {
		return true
	}
	if m.canon != canonGraph(g) {
		return false
	}
	m.matched, m.matchedVer = g, g.Version()
	return true
}

// Rel renders the current D(G), sorted by canonical tuple key. The
// sort makes the relation independent of maintenance history: a
// delta-maintained, a rebuilt, and a journal-replayed session all
// produce byte-identical rows.
func (m *Materialized) Rel() *relation.Relation {
	return m.set.Rel("D(G)")
}

// drain runs plan to exhaustion, padding every output association to
// scheme s, charging the tracker, and handing it to emit.
func drain(ctx context.Context, plan algebra.Node, in *relation.Instance, s *relation.Scheme, tr *budget.Tracker, emit func(relation.Tuple) error) error {
	it, err := algebra.Open(ctx, plan, in)
	if err != nil {
		return err
	}
	defer it.Close()
	perm := relation.PadPerm(it.Scheme(), s)
	for {
		b, err := it.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		padded := b.Remapped(s, perm)
		for i, n := 0, padded.Len(); i < n; i++ {
			if err := tr.Charge(1, padded.ApproxBytesRow(i)); err != nil {
				return err
			}
			if err := emit(padded.Tuple(i)); err != nil {
				return err
			}
		}
	}
}

// retuple rebinds t's values to scheme s positionally: the node's
// aliased scheme has the same arity and value layout as the base
// scheme t was built over, only the qualified names differ.
func retuple(s *relation.Scheme, t relation.Tuple) relation.Tuple {
	vals := make([]value.Value, s.Arity())
	for i := range vals {
		vals[i] = t.At(i)
	}
	return relation.NewTuple(s, vals...)
}

// occurrences returns the nodes of sub that scan base.
func occurrences(g *graph.QueryGraph, sub []string, base string) []string {
	var occ []string
	for _, name := range sub {
		if n, ok := g.Node(name); ok && n.Base == base {
			occ = append(occ, name)
		}
	}
	return occ
}

// rowsLeaf returns rows of a base, retupled to aliased — a node's
// aliased scan of that base — as a leaf that stands in for the scan.
func rowsLeaf(aliased *relation.Relation, label string, rows ...relation.Tuple) algebra.Node {
	r := relation.New(aliased.Name, aliased.Scheme())
	for _, t := range rows {
		r.Add(retuple(aliased.Scheme(), t))
	}
	return algebra.Materialized{Label: aliased.Name + label, Rel: r}
}

// removal is an association a delete removed from the front, with the
// nodes of its term's subset that did not hold the deleted row.
type removal struct {
	a    relation.Tuple
	rest []string
}

// ApplyRow folds one already-applied row edit of base into the
// materialized state: t was appended to base (del=false) or removed
// from it (del=true) *before* this call. On any error the state is
// partially updated and must be discarded; MaintainRows handles that.
func (m *Materialized) ApplyRow(ctx context.Context, g *graph.QueryGraph, in *relation.Instance, base string, t relation.Tuple, del bool) error {
	if err := fault.Inject("fd.delta.apply"); err != nil {
		return err
	}
	ctx, span := obs.StartSpan(ctx, "fd.delta_apply")
	defer span.End()
	span.SetStr("base", base)
	tr := budget.FromContext(ctx)
	var removed []removal
	var rest []string
	emit := func(p relation.Tuple) error {
		if !del {
			m.set.Insert(p)
		} else if m.set.Delete(p) {
			removed = append(removed, removal{p, rest})
		}
		return nil
	}
	for si, sub := range m.subsets {
		if err := ctx.Err(); err != nil {
			return err
		}
		occ := occurrences(g, sub, base)
		if len(occ) == 0 {
			continue
		}
		if len(occ) > maxDeltaOccurrences {
			return fmt.Errorf("%w: %d occurrences of %s in subset {%s}",
				errDeltaDegrade, len(occ), base, strings.Join(sub, ","))
		}
		// Every non-empty S ⊆ occ contributes one join term with the S
		// nodes bound to the singleton {t} and the rest to the base
		// without t (its pre-insert prefix, or its current post-delete
		// content).
		for mask := 1; mask < 1<<len(occ); mask++ {
			bind := map[string]algebra.Node{}
			for i, name := range occ {
				aliased, err := in.Aliased(base, name)
				if err != nil {
					return err
				}
				if mask&(1<<i) != 0 {
					bind[name] = rowsLeaf(aliased, "δ", t)
				} else if !del {
					bind[name] = algebra.Materialized{Label: name + "∖δ", Rel: aliased.Prefix(aliased.Len() - 1)}
				}
				// del case, i ∉ S: the default scan already reads the
				// post-delete base — exactly the binding the delete
				// decomposition needs.
			}
			if del {
				rest = nil
				for _, name := range sub {
					if _, held := bind[name]; !held {
						rest = append(rest, name)
					}
				}
			}
			if err := drain(ctx, m.shapes[si].plan(algebra.InnerJoin, bind), in, m.scheme, tr, emit); err != nil {
				return err
			}
		}
	}
	if len(removed) > 0 {
		if err := m.rederive(ctx, g, in, base, t, removed); err != nil {
			return err
		}
	}
	span.SetInt("tuples", int64(m.set.Len()))
	return nil
}

// rederive restores the front after deleting row t of base removed the
// associations in removed from it: it inserts, with pruning, (a) their
// projections onto the connected components of their rest and (b)
// every association of each remaining row of base that t subsumes. See
// the package notes above for why that is exact.
func (m *Materialized) rederive(ctx context.Context, g *graph.QueryGraph, in *relation.Instance, base string, t relation.Tuple, removed []removal) error {
	tr := budget.FromContext(ctx)
	blocks, err := nodeBlocks(g, in, m.scheme)
	if err != nil {
		return err
	}
	for _, r := range removed {
		for _, comp := range components(g, r.rest) {
			vals := make([]value.Value, m.scheme.Arity())
			for _, name := range comp {
				for _, p := range blocks[name] {
					vals[p] = r.a.At(p)
				}
			}
			p := relation.NewTuple(m.scheme, vals...)
			if err := tr.Charge(1, p.ApproxBytes()); err != nil {
				return err
			}
			m.set.Insert(p)
		}
	}
	var under []relation.Tuple
	for _, u := range in.Relation(base).Tuples() {
		if t.Subsumes(u) {
			under = append(under, u)
		}
	}
	if len(under) > 0 {
		insert := func(p relation.Tuple) error {
			m.set.Insert(p)
			return nil
		}
		for si, sub := range m.subsets {
			for _, name := range occurrences(g, sub, base) {
				aliased, err := in.Aliased(base, name)
				if err != nil {
					return err
				}
				bind := map[string]algebra.Node{name: rowsLeaf(aliased, "⊑δ", under...)}
				if err := drain(ctx, m.shapes[si].plan(algebra.InnerJoin, bind), in, m.scheme, tr, insert); err != nil {
					return err
				}
			}
		}
	}
	if m.set.Len() == 0 {
		// Nothing non-null is left. The all-null association is then
		// maximal if any base the graph reads holds an all-NULL row,
		// which no term read: rebuild.
		return fmt.Errorf("%w: the delete emptied D(G)", errDeltaDegrade)
	}
	return nil
}

// components splits nodes into the connected components of the
// subgraph of g they induce.
func components(g *graph.QueryGraph, nodes []string) [][]string {
	left := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		left[n] = true
	}
	var out [][]string
	for _, n := range nodes {
		if !left[n] {
			continue
		}
		delete(left, n)
		comp := []string{n}
		for i := 0; i < len(comp); i++ {
			for _, nb := range g.Neighbors(comp[i]) {
				if left[nb] {
					delete(left, nb)
					comp = append(comp, nb)
				}
			}
		}
		out = append(out, comp)
	}
	return out
}

// GraphReadsBase reports whether any node of g scans the named base
// relation — edits to other relations cannot change D(G).
func GraphReadsBase(g *graph.QueryGraph, base string) bool {
	for _, name := range g.Nodes() {
		if n, ok := g.Node(name); ok && n.Base == base {
			return true
		}
	}
	return false
}

// MaintainRows updates a D(G) after one row edit of base (t inserted
// into or deleted from the instance, which is already mutated). dg is
// g's D(G) from before the edit, or nil when the caller has none. It
// applies the O(delta) update to mat when mat matches g; otherwise it
// seeds a front from dg — charging dg's rows and bytes once, as a memo
// hit charges its clone — and applies the delta to that. It rebuilds,
// as NewMaterialized does, only when there is no dg or the delta
// cannot apply (more than MaxDeltaSubsets subsets, a degraded delta).
// It returns the refreshed relation, the materialization to keep for
// the next edit, and the chosen mode ("delta" or "recompute") — which
// is also left on the context's notes scratchpad as "dg_maint" for
// explain surfaces.
//
// Error contract: on a budget refusal or context cancellation the
// returned materialization is nil and the caller must treat any prior
// one as invalid (a delta may have half-applied). Any other delta
// failure degrades to a rebuild internally.
func MaintainRows(ctx context.Context, mat *Materialized, dg *relation.Relation, g *graph.QueryGraph, in *relation.Instance, base string, t relation.Tuple, del bool) (*relation.Relation, *Materialized, string, error) {
	ctx, span := obs.StartSpan(ctx, "fd.maintain_rows")
	defer span.End()
	if !mat.Matches(g) {
		mat = nil
		if dg != nil {
			if err := budget.FromContext(ctx).Charge(int64(dg.Len()), approxRelationBytes(dg)); err != nil {
				return nil, nil, "", err
			}
			var err error
			if mat, err = seed(ctx, g, dg); err != nil {
				return nil, nil, "", err
			}
		}
	}
	if mat != nil && len(mat.subsets) <= MaxDeltaSubsets {
		err := mat.ApplyRow(ctx, g, in, base, t, del)
		if err == nil {
			span.SetStr("mode", "delta")
			cDeltaApply.Inc()
			obs.Note(ctx, "dg_maint", "delta")
			d := mat.Rel()
			cacheStoreCurrent(g, in, d)
			return d, mat, "delta", nil
		}
		if errors.Is(err, budget.ErrExceeded) || ctx.Err() != nil {
			// The half-applied materialization dies with the nil return.
			return nil, nil, "", err
		}
		// Anything else (degradation, plan error) falls through to the
		// rebuild below.
	}
	d, err := Compute(ctx, g, in)
	if err != nil {
		return nil, nil, "", err
	}
	m2, err := seed(ctx, g, d)
	if err != nil {
		return nil, nil, "", err
	}
	span.SetStr("mode", "recompute")
	cDeltaRebuild.Inc()
	obs.Note(ctx, "dg_maint", "recompute")
	return d, m2, "recompute", nil
}
