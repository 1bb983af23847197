package discovery

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"clio/internal/obs"
	"clio/internal/relation"
	"clio/internal/schema"
)

// EdgeSource records where a join-knowledge edge came from.
type EdgeSource string

// The knowledge-edge provenances: declared foreign keys, mined
// inclusion dependencies, and explicit user input.
const (
	SourceFK   EdgeSource = "fk"
	SourceIND  EdgeSource = "ind"
	SourceUser EdgeSource = "user"
)

// JoinEdge is one candidate way of joining two base relations: an
// equality between two columns. Clio's walk inference searches these.
type JoinEdge struct {
	From, To schema.ColumnRef
	Source   EdgeSource
}

// String renders the edge as From = To [source].
func (e JoinEdge) String() string {
	return fmt.Sprintf("%s = %s [%s]", e.From, e.To, e.Source)
}

// key normalizes the unordered column pair for deduplication.
func (e JoinEdge) key() [2]string {
	a, b := e.From.String(), e.To.String()
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// Knowledge is Clio's join-knowledge base: a multigraph over base
// relations whose (parallel) edges are candidate join conditions.
type Knowledge struct {
	edges []JoinEdge
	byRel map[string][]int       // relation name → edge positions
	pairs map[[2]string]struct{} // keys of edges, for deduplication
}

// NewKnowledge creates an empty knowledge base.
func NewKnowledge() *Knowledge {
	return &Knowledge{byRel: map[string][]int{}, pairs: map[[2]string]struct{}{}}
}

// Add inserts a candidate join edge, deduplicating by unordered column
// pair (the first source wins: declared FKs are added before mined
// INDs by BuildKnowledge).
func (k *Knowledge) Add(e JoinEdge) {
	key := e.key()
	if _, dup := k.pairs[key]; dup {
		return
	}
	k.pairs[key] = struct{}{}
	pos := len(k.edges)
	k.edges = append(k.edges, e)
	k.byRel[e.From.Relation] = append(k.byRel[e.From.Relation], pos)
	if e.To.Relation != e.From.Relation {
		k.byRel[e.To.Relation] = append(k.byRel[e.To.Relation], pos)
	}
}

// AddUserEdge records an explicit user-provided join condition.
func (k *Knowledge) AddUserEdge(from, to schema.ColumnRef) {
	k.Add(JoinEdge{From: from, To: to, Source: SourceUser})
}

// Edges returns all candidate edges.
func (k *Knowledge) Edges() []JoinEdge { return k.edges }

// EdgesBetween returns the candidate joins between two base relations,
// in insertion order.
func (k *Knowledge) EdgesBetween(r1, r2 string) []JoinEdge {
	var out []JoinEdge
	for _, i := range k.byRel[r1] {
		e := k.edges[i]
		if e.From.Relation == r1 && e.To.Relation == r2 ||
			e.From.Relation == r2 && e.To.Relation == r1 {
			out = append(out, e)
		}
	}
	return out
}

// Neighbors returns the base relations joinable with rel, sorted.
func (k *Knowledge) Neighbors(rel string) []string {
	set := map[string]bool{}
	for _, i := range k.byRel[rel] {
		e := k.edges[i]
		if e.From.Relation == rel {
			set[e.To.Relation] = true
		}
		if e.To.Relation == rel {
			set[e.From.Relation] = true
		}
	}
	delete(set, rel)
	var out []string
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Path is a sequence of join edges leading from one base relation to
// another. Relations() returns the visited base relations in order.
type Path []JoinEdge

// Relations returns the base relations visited by the path, starting
// from the given relation.
func (p Path) Relations(start string) []string {
	out := []string{start}
	cur := start
	for _, e := range p {
		next := e.To.Relation
		if next == cur {
			next = e.From.Relation
		}
		out = append(out, next)
		cur = next
	}
	return out
}

// String renders the path as a chain of edges.
func (p Path) String() string {
	parts := make([]string, len(p))
	for i, e := range p {
		parts[i] = e.String()
	}
	return strings.Join(parts, " ; ")
}

// Paths enumerates the simple paths (no base relation revisited) from
// one base relation to another, with at most maxEdges edges, choosing
// among parallel candidate edges. Deterministic order: shorter paths
// first, then lexicographic.
func (k *Knowledge) Paths(from, to string, maxEdges int) []Path {
	var out []Path
	var rec func(cur string, visited map[string]bool, acc Path)
	rec = func(cur string, visited map[string]bool, acc Path) {
		if cur == to && len(acc) > 0 {
			cp := make(Path, len(acc))
			copy(cp, acc)
			out = append(out, cp)
			return
		}
		if len(acc) >= maxEdges {
			return
		}
		for _, i := range k.byRel[cur] {
			e := k.edges[i]
			next := e.To.Relation
			if next == cur {
				next = e.From.Relation
			}
			if next == cur || visited[next] {
				continue
			}
			visited[next] = true
			rec(next, visited, append(acc, e))
			delete(visited, next)
		}
	}
	rec(from, map[string]bool{from: true}, nil)
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		return out[i].String() < out[j].String()
	})
	return out
}

// BuildKnowledge assembles the knowledge base for an instance:
// declared foreign keys first, then (optionally) mined inclusion
// dependencies with the given overlap threshold. Declared edges win
// deduplication against mined ones.
func BuildKnowledge(ctx context.Context, in *relation.Instance, mineINDs bool, minOverlap float64) *Knowledge {
	ctx, span := obs.StartSpan(ctx, "discovery.build_knowledge")
	defer span.End()
	span.SetBool("mine_inds", mineINDs)
	k := NewKnowledge()
	declared := 0
	if in.Schema != nil {
		for _, fk := range in.Schema.ForeignKs {
			// Unary FKs become single edges; composite FKs contribute
			// one edge per column pair (the conjunction is rebuilt by
			// the walk operator).
			for i := range fk.FromAttrs {
				k.Add(JoinEdge{
					From:   schema.Col(fk.FromRelation, fk.FromAttrs[i]),
					To:     schema.Col(fk.ToRelation, fk.ToAttrs[i]),
					Source: SourceFK,
				})
			}
		}
		declared = len(k.edges)
	}
	if mineINDs {
		for _, ind := range DiscoverINDs(ctx, in, minOverlap) {
			k.Add(JoinEdge{From: ind.From, To: ind.To, Source: SourceIND})
		}
	}
	span.SetInt("declared_edges", int64(declared))
	span.SetInt("edges", int64(len(k.edges)))
	return k
}
