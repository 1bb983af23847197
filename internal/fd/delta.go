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
// The join is multilinear in each relation argument: for a connected
// subset J whose nodes n_1..n_k scan the edited base B,
//
//	F(J)[B ⊎ {δ}] = Σ over S ⊆ {n_1..n_k} of F(J) with the nodes in S
//	                bound to the singleton {δ} and the rest bound to B,
//
// where Σ is multiset union. The S = ∅ term is F(J) before the edit,
// so the *delta* is the sum over the 2^k − 1 non-empty S. For an
// insert (instance already mutated, δ appended last) the non-S
// occurrences read the pre-edit prefix of B; for a delete (δ already
// removed) they read B as it is now — in both cases every relation the
// delta terms touch exists concretely, no old-state reconstruction.
// Each emitted association is padded to the D(G) scheme and pushed
// through an incremental subsumption set (relation.SubsumeSet), whose
// multiset counts make deletion exact: an association produced by two
// different subsets stays alive until both occurrences are removed.
//
// Cost is O(delta): the singleton-bound side of every join term has
// one tuple, so term size is bounded by the rows that actually join
// with δ, not by |B|. Degradation is explicit — too many connected
// subsets (MaxDeltaSubsets), too many occurrences of B in one subset
// (maxDeltaOccurrences), or an inconsistency detected by the
// subsumption set — and falls back to a full rebuild in MaintainRows.

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

// errDeltaDegrade marks an edit the delta path refuses (too wide, or
// the subsumption set detected an inconsistency). MaintainRows treats
// it as "rebuild instead", never as a user-facing failure.
var errDeltaDegrade = errors.New("fd: delta application degraded")

// Materialized is a D(G) kept current under row edits: the full
// subsumption state of every padded association, not just the maximal
// front, so deletes can be maintained exactly.
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

// NewMaterialized computes D(G) from scratch into delta-maintainable
// form. It enumerates the same subgraphs and charges the same budget,
// association by association, as FullDisjunction; only the
// accumulator differs. The padded
// associations are collected and the subsumption state is built from
// them in one pass (relation.NewSubsumeSetFrom), which yields exactly
// the state inserting them one by one would.
func NewMaterialized(ctx context.Context, g *graph.QueryGraph, in *relation.Instance) (*Materialized, error) {
	if g.NodeCount() == 0 {
		return nil, fmt.Errorf("fd: empty query graph")
	}
	if !g.Connected() {
		return nil, fmt.Errorf("fd: query graph is not connected")
	}
	ctx, span := obs.StartSpan(ctx, "fd.materialize")
	defer span.End()
	s, err := Scheme(g, in)
	if err != nil {
		return nil, err
	}
	subsets := g.ConnectedSubsets()
	span.SetInt("subsets", int64(len(subsets)))
	tr := budget.FromContext(ctx)
	var assocs []relation.Tuple
	collect := func(p relation.Tuple) error {
		assocs = append(assocs, p)
		return nil
	}
	shapes := make([]planShape, len(subsets))
	for i, sub := range subsets {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := fault.Inject("fd.materialize"); err != nil {
			return nil, err
		}
		if shapes[i], err = spanningShape(g, sub); err != nil {
			return nil, err
		}
		if err := drain(ctx, shapes[i].plan(algebra.InnerJoin, nil), in, s, tr, collect); err != nil {
			return nil, err
		}
	}
	m := &Materialized{
		scheme:     s,
		subsets:    subsets,
		shapes:     shapes,
		set:        relation.NewSubsumeSetFrom(s, assocs),
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
	emit := func(p relation.Tuple) error {
		if !del {
			m.set.Insert(p)
		} else if !m.set.Delete(p) {
			// The multiset disagrees with the maintained state — a bug
			// or an unnoticed external mutation. Degrade to rebuild
			// rather than serve a diverged D(G).
			return fmt.Errorf("%w: delete of untracked association", errDeltaDegrade)
		}
		return nil
	}
	for si, sub := range m.subsets {
		if err := ctx.Err(); err != nil {
			return err
		}
		var occ []string
		for _, name := range sub {
			if n, ok := g.Node(name); ok && n.Base == base {
				occ = append(occ, name)
			}
		}
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
					one := relation.New(name, aliased.Scheme())
					one.Add(retuple(aliased.Scheme(), t))
					bind[name] = algebra.Materialized{Label: name + "δ", Rel: one}
				} else if !del {
					bind[name] = algebra.Materialized{Label: name + "∖δ", Rel: aliased.Prefix(aliased.Len() - 1)}
				}
				// del case, i ∉ S: the default scan already reads the
				// post-delete base — exactly the binding the delete
				// decomposition needs.
			}
			if err := drain(ctx, m.shapes[si].plan(algebra.InnerJoin, bind), in, m.scheme, tr, emit); err != nil {
				return err
			}
		}
	}
	span.SetInt("tuples", int64(m.set.Len()))
	return nil
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
// into or deleted from the instance, which is already mutated). It
// applies the O(delta) update whenever mat matches g and has at most
// MaxDeltaSubsets subsets, and rebuilds otherwise. It returns the
// refreshed relation, the materialization to keep for the next edit,
// and the chosen mode ("delta" or "recompute") — which is also left on
// the context's notes scratchpad as "dg_maint" for explain surfaces.
//
// Error contract: on a budget refusal or context cancellation the
// returned materialization is nil and the caller must treat any prior
// one as invalid (a delta may have half-applied). Any other delta
// failure degrades to a rebuild internally.
func MaintainRows(ctx context.Context, mat *Materialized, g *graph.QueryGraph, in *relation.Instance, base string, t relation.Tuple, del bool) (*relation.Relation, *Materialized, string, error) {
	ctx, span := obs.StartSpan(ctx, "fd.maintain_rows")
	defer span.End()
	if mat.Matches(g) && len(mat.subsets) <= MaxDeltaSubsets {
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
	m2, err := NewMaterialized(ctx, g, in)
	if err != nil {
		return nil, nil, "", err
	}
	span.SetStr("mode", "recompute")
	cDeltaRebuild.Inc()
	obs.Note(ctx, "dg_maint", "recompute")
	d := m2.Rel()
	cacheStoreCurrent(g, in, d)
	return d, m2, "recompute", nil
}
