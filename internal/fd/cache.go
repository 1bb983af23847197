package fd

import (
	"container/list"
	"sort"
	"strconv"
	"strings"
	"sync"

	"clio/internal/expr"
	"clio/internal/fault"
	"clio/internal/graph"
	"clio/internal/obs"
	"clio/internal/relation"
)

// D(G) memo cache instrumentation.
var (
	cCacheHits        = obs.GetCounter("fd.cache.hits")
	cCacheMisses      = obs.GetCounter("fd.cache.misses")
	cCacheEvictions   = obs.GetCounter("fd.cache.evictions")
	cCacheStaleStores = obs.GetCounter("fd.cache.stale_stores")
	gCacheEntries     = obs.GetGauge("fd.cache.entries")
)

// dgCache memoizes Compute results under content-addressed keys with
// LRU eviction. A key hashes the query graph shape and the content
// fingerprint of every base relation the graph reads, so any mutation
// of a source relation (which changes its fingerprint) naturally
// misses; explicit invalidation exists to release memory promptly.
//
// The cache is disabled (capacity zero) by default so batch and test
// workloads see no behavior change; long-lived services opt in with
// SetCacheCapacity.
type dgCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	lru     *list.List // front = most recent; values are *cacheEntry
}

type cacheEntry struct {
	key string
	d   *relation.Relation
}

var theCache = &dgCache{entries: map[string]*list.Element{}, lru: list.New()}

// SetCacheCapacity sets the maximum number of memoized D(G) results
// (0 disables caching and clears the cache). It returns the previous
// capacity.
func SetCacheCapacity(n int) int {
	theCache.mu.Lock()
	defer theCache.mu.Unlock()
	prev := theCache.cap
	theCache.cap = n
	for theCache.lru.Len() > n {
		theCache.evictOldestLocked()
	}
	gCacheEntries.Set(int64(theCache.lru.Len()))
	return prev
}

// CacheCapacity returns the current capacity.
func CacheCapacity() int {
	theCache.mu.Lock()
	defer theCache.mu.Unlock()
	return theCache.cap
}

// InvalidateCache drops every memoized D(G). No serving layer calls
// it: only tests and the serve benchmark do, to start from an empty
// cache. Nothing needs it for correctness, since mutated relations
// change their fingerprints and therefore their keys.
func InvalidateCache() {
	theCache.mu.Lock()
	defer theCache.mu.Unlock()
	theCache.entries = map[string]*list.Element{}
	theCache.lru.Init()
	gCacheEntries.Set(0)
}

// CacheLen returns the number of memoized results.
func CacheLen() int {
	theCache.mu.Lock()
	defer theCache.mu.Unlock()
	return theCache.lru.Len()
}

func (c *dgCache) evictOldestLocked() {
	back := c.lru.Back()
	if back == nil {
		return
	}
	c.lru.Remove(back)
	delete(c.entries, back.Value.(*cacheEntry).key)
	cCacheEvictions.Inc()
	// Every mutation path keeps the gauge in lock-step with the LRU,
	// so fd.cache.entries can never drift from CacheLen().
	gCacheEntries.Set(int64(c.lru.Len()))
}

// cacheKey derives the content-addressed key for computing D(G) of g
// over in: the canonical graph description plus each node's base
// relation name and content fingerprint. ok is false when caching is
// off or the graph reads a relation the instance does not have (the
// computation will fail anyway).
func cacheKey(g *graph.QueryGraph, in *relation.Instance) (string, bool) {
	if CacheCapacity() <= 0 {
		return "", false
	}
	var b strings.Builder
	b.WriteString(canonGraph(g))
	b.WriteByte('|')
	bases := map[string]bool{}
	for _, name := range g.Nodes() {
		n, _ := g.Node(name)
		bases[n.Base] = true
	}
	sorted := make([]string, 0, len(bases))
	for base := range bases {
		sorted = append(sorted, base)
	}
	sort.Strings(sorted)
	for _, base := range sorted {
		r := in.Relation(base)
		if r == nil {
			return "", false
		}
		writeField(&b, 'r', base)
		writeField(&b, 'f', strconv.FormatUint(r.Fingerprint(), 16))
	}
	return b.String(), true
}

// writeField frames one key component as tag + decimal payload length
// + ':' + payload. Length prefixes make the key encoding unambiguous:
// no payload content (node names, predicate text) can forge the
// boundary between components, so distinct graphs cannot collide by
// delimiter injection.
func writeField(b *strings.Builder, tag byte, payload string) {
	b.WriteByte(tag)
	b.WriteString(strconv.Itoa(len(payload)))
	b.WriteByte(':')
	b.WriteString(payload)
}

// canonGraph renders a query graph deterministically: sorted
// length-framed name/base node pairs and sorted normalized edges.
// Edge endpoints are unordered (a join edge is symmetric), so the
// endpoint pair is sorted — and the predicate is rendered through
// canonExpr, which normalizes the direction-sensitive parts of the
// label (operand order of symmetric comparisons, conjunct order) to
// match. Without that, equal graphs built in different orders miss
// the cache.
func canonGraph(g *graph.QueryGraph) string {
	nodes := g.Nodes()
	sort.Strings(nodes)
	var b strings.Builder
	for _, name := range nodes {
		n, _ := g.Node(name)
		writeField(&b, 'n', name)
		writeField(&b, 'b', n.Base)
	}
	edges := make([]string, 0, len(g.Edges()))
	for _, e := range g.Edges() {
		a, z := e.A, e.B
		if a > z {
			a, z = z, a
		}
		var eb strings.Builder
		writeField(&eb, 'a', a)
		writeField(&eb, 'z', z)
		writeField(&eb, 'p', canonExpr(e.Pred))
		edges = append(edges, eb.String())
	}
	sort.Strings(edges)
	for _, e := range edges {
		writeField(&b, 'e', e)
	}
	return b.String()
}

// canonExpr renders an edge predicate in canonical form: operands of
// symmetric operators (=, <>, AND, OR, +, *) sort lexicographically,
// AND/OR chains flatten before sorting, and mirrored comparisons
// normalize (a > b becomes b < a). Subexpressions are length-framed,
// so a column literally named "x = y" cannot collide with an actual
// equality. Semantically equal predicates that merely differ in
// construction order therefore share one key.
func canonExpr(e expr.Expr) string {
	switch x := e.(type) {
	case expr.Bin:
		switch x.Op {
		case expr.OpAnd, expr.OpOr:
			var parts []string
			flattenCanon(x.Op, x, &parts)
			sort.Strings(parts)
			return canonNode(binTag(x.Op), parts)
		case expr.OpEq, expr.OpNe, expr.OpAdd, expr.OpMul:
			l, r := canonExpr(x.L), canonExpr(x.R)
			if l > r {
				l, r = r, l
			}
			return canonNode(binTag(x.Op), []string{l, r})
		case expr.OpGt:
			return canonExpr(expr.Bin{Op: expr.OpLt, L: x.R, R: x.L})
		case expr.OpGe:
			return canonExpr(expr.Bin{Op: expr.OpLe, L: x.R, R: x.L})
		default:
			return canonNode(binTag(x.Op), []string{canonExpr(x.L), canonExpr(x.R)})
		}
	case expr.Not:
		return canonNode("not", []string{canonExpr(x.E)})
	default:
		// Leaves and uninterpreted operators: the surface syntax is
		// already deterministic; framing keeps it unambiguous.
		return canonNode("leaf", []string{e.String()})
	}
}

// flattenCanon collects the canonical renderings of a same-operator
// chain's operands (AND/OR associate, so nesting shape is irrelevant).
func flattenCanon(op expr.BinOp, e expr.Expr, out *[]string) {
	if b, ok := e.(expr.Bin); ok && b.Op == op {
		flattenCanon(op, b.L, out)
		flattenCanon(op, b.R, out)
		return
	}
	*out = append(*out, canonExpr(e))
}

// binTag names a binary operator stably for key encoding.
func binTag(op expr.BinOp) string { return "b" + strconv.Itoa(int(op)) }

func canonNode(tag string, parts []string) string {
	var b strings.Builder
	writeField(&b, 'o', tag)
	for _, p := range parts {
		writeField(&b, 'x', p)
	}
	return b.String()
}

// cacheLookup returns the memoized D(G) for key, if present, as a
// defensive clone (callers may rename or re-sort their copy). An
// injected fault at "fd.cache.lookup" degrades the hit to a miss —
// the cache is an optimization, never a correctness dependency.
func cacheLookup(key string) (*relation.Relation, bool) {
	if err := fault.Inject("fd.cache.lookup"); err != nil {
		cCacheMisses.Inc()
		return nil, false
	}
	theCache.mu.Lock()
	defer theCache.mu.Unlock()
	el, ok := theCache.entries[key]
	if !ok {
		cCacheMisses.Inc()
		return nil, false
	}
	theCache.lru.MoveToFront(el)
	cCacheHits.Inc()
	return el.Value.(*cacheEntry).d.Clone(), true
}

// cachePeek reports whether key is memoized, without touching LRU
// order, the hit/miss counters, or fault injection — a read-only probe
// for EXPLAIN's cache-status report.
func cachePeek(key string) bool {
	theCache.mu.Lock()
	defer theCache.mu.Unlock()
	_, ok := theCache.entries[key]
	return ok
}

// cacheStoreChecked re-derives the content key from the graph and the
// instance as they are NOW and memoizes d only when it still matches
// the key the computation started from. A base relation that mutated
// mid-computation changes its fingerprint, so the re-derived key
// differs and the store is skipped — without this check the result for
// the old content would be memoized under a key describing the new
// content, poisoning every later lookup until the next mutation. It
// reports whether the store happened.
func cacheStoreChecked(key string, g *graph.QueryGraph, in *relation.Instance, d *relation.Relation) bool {
	now, ok := cacheKey(g, in)
	if !ok || now != key {
		cCacheStaleStores.Inc()
		return false
	}
	cacheStore(key, d)
	return true
}

// cacheStoreCurrent memoizes d under the key derived from the current
// graph and relation contents — the store path for delta-maintained
// results, whose key was never computed up front. The key describes
// exactly the state the result was derived from, so re-fingerprinting
// here is what keeps maintained results honest in the cache.
func cacheStoreCurrent(g *graph.QueryGraph, in *relation.Instance, d *relation.Relation) {
	if key, ok := cacheKey(g, in); ok {
		cacheStore(key, d)
	}
}

// cacheStore memoizes d under key, evicting the least recently used
// entry beyond capacity. An injected fault at "fd.cache.store" skips
// the store (the result is still returned to the caller).
func cacheStore(key string, d *relation.Relation) {
	if err := fault.Inject("fd.cache.store"); err != nil {
		return
	}
	theCache.mu.Lock()
	defer theCache.mu.Unlock()
	if theCache.cap <= 0 {
		return
	}
	if el, ok := theCache.entries[key]; ok {
		el.Value.(*cacheEntry).d = d.Clone()
		theCache.lru.MoveToFront(el)
		return
	}
	theCache.entries[key] = theCache.lru.PushFront(&cacheEntry{key: key, d: d.Clone()})
	for theCache.lru.Len() > theCache.cap {
		theCache.evictOldestLocked()
	}
	gCacheEntries.Set(int64(theCache.lru.Len()))
}
