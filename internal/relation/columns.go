package relation

// The cached columnar view of a relation. It is derived from the tuple
// store and keyed on the relation's version counter: a cached view
// whose version matches the relation is current, anything else is
// rebuilt. SortByKey reorders tuples without a version bump, so it
// drops the cache itself.
//
// Concurrency model matches the rest of Relation: any number of
// concurrent readers OR one mutator. Columns() counts as a reader; the
// internal mutex only serializes rebuilds between concurrent readers.

import (
	"sync"
	"sync/atomic"
)

// columnView is a columnar view and the relation version it describes.
type columnView struct {
	version uint64
	batch   *Batch
}

// columnCache holds the atomic view pointer and the rebuild lock; it
// lives in its own struct so Relation literals elsewhere in the package
// stay valid.
type columnCache struct {
	mu  sync.Mutex
	ptr atomic.Pointer[columnView]
}

// cacheState lazily allocates the relation's cache holder.
func (r *Relation) cacheState() *columnCache {
	c := r.cache.Load()
	if c == nil {
		c = &columnCache{}
		if !r.cache.CompareAndSwap(nil, c) {
			c = r.cache.Load()
		}
	}
	return c
}

// invalidateDerived drops the cached view. Called by mutations that
// reorder or rewrite tuples in place (SortByKey), which the version
// counter cannot otherwise observe.
func (r *Relation) invalidateDerived() {
	if c := r.cache.Load(); c != nil {
		c.ptr.Store(nil)
	}
}

// Columns returns a column-major view of the relation's tuples, cached
// until the next mutation. The caller must treat it as read-only; the
// same *Batch may be served to many readers.
func (r *Relation) Columns() *Batch {
	cs := r.cacheState()
	if c := cs.ptr.Load(); c != nil && c.version == r.version {
		return c.batch
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if c := cs.ptr.Load(); c != nil && c.version == r.version {
		return c.batch
	}
	b := BatchFromRelation(r)
	cs.ptr.Store(&columnView{version: r.version, batch: b})
	return b
}
