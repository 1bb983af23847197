package core

import (
	"context"
	"fmt"

	"clio/internal/fd"
	"clio/internal/obs"
	"clio/internal/relation"
)

// Evolution instrumentation.
var (
	cEvolveRuns  = obs.GetCounter("core.evolve.runs")
	cEvolveFresh = obs.GetCounter("core.evolve.fresh")
)

// This file implements continuous evolution of illustrations
// (Section 5.3): when an operator turns M into M' with G an induced
// subgraph of G', each old example is extended rather than replaced,
// so the user keeps her place in familiar data.
//
// The key fact (provable from the antichain structure of D(G)): every
// old data association d ∈ D(G) has at least one extension
// d' ∈ D(G') whose projection onto the old scheme equals d exactly.
// Evolve therefore maps each old example to its extensions, marks them
// Inherited, and tops the result up to sufficiency with Fresh
// examples.

// Evolved is the result of evolving an illustration.
type Evolved struct {
	Illustration
	// Extended counts old examples that found at least one extension.
	Extended int
	// Old is the number of old examples.
	Old int
	// Fresh counts examples added only to restore sufficiency.
	Fresh int
}

// ContinuityRatio is Extended/Old (1.0 when every old example
// survived; it always is when G is an induced subgraph of G' over the
// same instance). NaN-free: an empty old illustration evolves with
// ratio 1.
func (e Evolved) ContinuityRatio() float64 {
	if e.Old == 0 {
		return 1
	}
	return float64(e.Extended) / float64(e.Old)
}

// Evolve computes the continuous evolution of oldIll under the new
// mapping. The old mapping's query graph must be a subgraph of the new
// one (node names and attributes are matched by qualified name).
// D(G′) comes from fd.Compute, so a memoized D(G′) is reused; the
// continuity guarantee rests on EvolveOnDG extending the old examples,
// not on how D(G′) is built.
func Evolve(ctx context.Context, oldIll Illustration, newM *Mapping, in *relation.Instance) (Evolved, error) {
	ctx, span := obs.StartSpan(ctx, "core.evolve")
	defer span.End()
	newDG, err := fd.Compute(ctx, newM.Graph, in)
	if err != nil {
		return Evolved{}, err
	}
	ev, err := EvolveOnDG(ctx, oldIll, newM, in, newDG)
	if err != nil {
		return Evolved{}, err
	}
	span.SetInt("old", int64(ev.Old))
	span.SetInt("extended", int64(ev.Extended))
	span.SetInt("fresh", int64(ev.Fresh))
	return ev, nil
}

// EvolveOnDG evolves an illustration given an already materialized
// D(G′) of the new mapping (workspaces cache these).
func EvolveOnDG(ctx context.Context, oldIll Illustration, newM *Mapping, in *relation.Instance, newDG *relation.Relation) (Evolved, error) {
	ctx, span := obs.StartSpan(ctx, "core.evolve_on_dg")
	defer span.End()
	cEvolveRuns.Inc()
	oldScheme, err := fd.Scheme(oldIll.Mapping.Graph, in)
	if err != nil {
		return Evolved{}, err
	}
	newScheme, err := fd.Scheme(newM.Graph, in)
	if err != nil {
		return Evolved{}, err
	}
	for _, n := range oldScheme.Names() {
		if !newScheme.Has(n) {
			return Evolved{}, fmt.Errorf("core: evolution target lost attribute %q (old graph not a subgraph)", n)
		}
	}
	full, err := ExamplesOn(ctx, newM, in, newDG)
	if err != nil {
		return Evolved{}, err
	}

	// Match each new association to the old example whose association
	// equals its projection onto the old scheme: old associations bucket
	// on Hash64, new ones probe with HashOn over the old attributes'
	// positions, and EqualOn confirms a candidate.
	var projPos []int
	if len(full.Examples) > 0 {
		projPos = full.Examples[0].Assoc.Scheme().Positions(oldScheme.Names()...)
	}
	old := newAssocIndex(oldIll.Examples, len(projPos))
	extended := make([]bool, len(oldIll.Examples))

	out := Evolved{Illustration: Illustration{Mapping: newM}, Old: len(oldIll.Examples)}
	chosen := make([]bool, len(full.Examples))
	for i, e := range full.Examples {
		if j, ok := old.find(e.Assoc, projPos); ok {
			extended[j] = true
			inherited := e
			inherited.Inherited = true
			out.Examples = append(out.Examples, inherited)
			chosen[i] = true
		}
	}
	for _, x := range extended {
		if x {
			out.Extended++
		}
	}

	// Top up to sufficiency with fresh examples: greedy cover over the
	// requirements not yet covered by the inherited examples.
	reqs := indexRequirements(newM, full.Examples)
	for i, c := range chosen {
		if c {
			reqs.meet(reqs.covers(i))
		}
	}
	reqs.cover(chosen, func(i int) {
		out.Examples = append(out.Examples, full.Examples[i])
		out.Fresh++
	})
	cEvolveFresh.Add(int64(out.Fresh))
	span.SetInt("examples", int64(len(out.Examples)))
	return out, nil
}

// assocIndex finds old examples by data association: example indexes
// in buckets keyed by the association's Hash64.
type assocIndex struct {
	examples []Example
	ident    []int // positions 0..arity-1 of an old association
	buckets  map[uint64][]int32
}

// newAssocIndex indexes the old examples whose associations have the
// given arity; a projection onto that many attributes equals no other.
func newAssocIndex(examples []Example, arity int) *assocIndex {
	x := &assocIndex{examples: examples, ident: make([]int, arity), buckets: make(map[uint64][]int32, len(examples))}
	for i := range x.ident {
		x.ident[i] = i
	}
	for i, e := range examples {
		if e.Assoc.Scheme().Arity() == arity {
			h := e.Assoc.Hash64()
			x.buckets[h] = append(x.buckets[h], int32(i))
		}
	}
	return x
}

// find returns the index of the first old example whose association
// equals t projected onto pos.
func (x *assocIndex) find(t relation.Tuple, pos []int) (int, bool) {
	for _, i := range x.buckets[t.HashOn(pos)] {
		if t.EqualOn(x.examples[i].Assoc, pos, x.ident) {
			return int(i), true
		}
	}
	return 0, false
}
