package algebra

// The streaming operators of the columnar core. Scans serve the
// relation's cached columnar view, Select filters with selection
// vectors over a borrowed scratch row (no per-row allocation), Project
// executes pure column permutations as zero-copy remaps, and Distinct
// dedups on vectorized canonical hashes.

import (
	"context"

	"clio/internal/expr"
	"clio/internal/relation"
	"clio/internal/value"
)

// baseColumns returns the cached column view of a scan or a
// materialized node, without copying; ok is false for any other node.
func baseColumns(n Node, in *relation.Instance) (b *relation.Batch, ok bool, err error) {
	switch x := n.(type) {
	case Scan:
		b, err = in.AliasedColumns(x.Base, x.aliasOrBase())
		return b, true, err
	case Materialized:
		return x.Rel.Columns(), true, nil
	}
	return nil, false, nil
}

// childBatch materializes a join child as one columnar batch: a base
// node's cached columns, or else its pipeline drained into an
// accumulator batch — so a left-deep join chain passes column vectors
// from join to join without ever converting through rows.
func childBatch(ctx context.Context, n Node, in *relation.Instance) (*relation.Batch, error) {
	if b, ok, err := baseColumns(n, in); ok {
		return b, err
	}
	it, err := Open(ctx, n, in)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	b, err := it.NextBatch()
	if err != nil {
		return nil, err
	}
	if d, ok := it.(interface{ drained() bool }); ok && b != nil && d.drained() {
		// A join's only batch: nothing overwrites it once the stream
		// has ended, so it is the child's batch as it stands.
		return b, nil
	}
	acc := relation.NewBatch(it.Scheme())
	for b != nil {
		acc.AppendBatch(b)
		if b, err = it.NextBatch(); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// scanIter streams a relation's cached columnar view in windows.
type scanIter struct {
	ctx  context.Context
	b    *relation.Batch
	name string
	pos  int
	sel  []int32
	op   opStats
}

func newScanIter(ctx context.Context, b *relation.Batch, name string) *scanIter {
	ctx, span := openOp(ctx, "op.scan")
	span.SetStr("rel", name)
	return &scanIter{ctx: ctx, b: b, name: name, op: opStats{span: span}}
}

func (it *scanIter) Scheme() *relation.Scheme { return it.b.Scheme() }
func (it *scanIter) Name() string             { return it.name }
func (it *scanIter) Close()                   { it.op.close() }

func (it *scanIter) NextBatch() (*relation.Batch, error) {
	if err := it.ctx.Err(); err != nil {
		return nil, err
	}
	n := it.b.Rows()
	if it.pos >= n {
		return nil, nil
	}
	if it.pos == 0 && n <= BatchSize {
		// Whole relation in one window: serve the cached view directly.
		it.pos = n
		it.op.observe(n)
		return it.b, nil
	}
	end := min(it.pos+BatchSize, n)
	it.sel = it.sel[:0]
	for i := it.pos; i < end; i++ {
		it.sel = append(it.sel, int32(i))
	}
	it.pos = end
	it.op.observe(len(it.sel))
	return it.b.View(it.sel), nil
}

// selectIter filters child batches under 3VL by building a selection
// vector; rows are evaluated through a borrowed scratch tuple, so
// filtering allocates nothing per row.
type selectIter struct {
	child   Iterator
	pred    expr.Expr
	scratch []value.Value
	sel     []int32
	op      opStats
}

func newSelectIter(child Iterator, pred expr.Expr, op opStats) *selectIter {
	return &selectIter{
		child:   child,
		pred:    pred,
		scratch: make([]value.Value, child.Scheme().Arity()),
		op:      op,
	}
}

func (it *selectIter) Scheme() *relation.Scheme { return it.child.Scheme() }
func (it *selectIter) Name() string             { return it.child.Name() }
func (it *selectIter) Close() {
	it.child.Close()
	it.op.close()
}

func (it *selectIter) NextBatch() (*relation.Batch, error) {
	for {
		b, err := it.child.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, nil
		}
		it.sel = it.sel[:0]
		n := b.Len()
		for i := 0; i < n; i++ {
			t := b.TupleInto(it.scratch, i)
			if expr.Truth(it.pred, t) == value.True {
				it.sel = append(it.sel, int32(b.RowID(i)))
			}
		}
		if len(it.sel) > 0 {
			it.op.observe(len(it.sel))
			return b.View(it.sel), nil
		}
	}
}

// projectIter maps child batches through the output expressions. When
// every output column is a plain column reference the projection is a
// zero-copy remap of the child's vectors; otherwise expressions
// evaluate row-wise into a rebuilt batch.
type projectIter struct {
	child   Iterator
	cols    []OutputCol
	name    string
	s       *relation.Scheme
	perm    []int // non-nil: pure column permutation
	scratch []value.Value
	out     *relation.Batch
	op      opStats
}

func newProjectIter(child Iterator, cols []OutputCol, name string, op opStats) *projectIter {
	names := make([]string, len(cols))
	for i, col := range cols {
		names[i] = col.Name
	}
	it := &projectIter{
		child: child,
		cols:  cols,
		name:  name,
		s:     relation.NewScheme(names...),
		op:    op,
	}
	perm := make([]int, len(cols))
	pure := true
	for i, col := range cols {
		c, ok := col.Expr.(expr.Col)
		if !ok {
			pure = false
			break
		}
		p := child.Scheme().Index(c.Name)
		if p < 0 {
			pure = false
			break
		}
		perm[i] = p
	}
	if pure {
		it.perm = perm
	} else {
		it.scratch = make([]value.Value, child.Scheme().Arity())
		it.out = relation.NewBatch(it.s)
	}
	return it
}

func (it *projectIter) Scheme() *relation.Scheme { return it.s }
func (it *projectIter) Name() string             { return it.name }
func (it *projectIter) Close() {
	it.child.Close()
	it.op.close()
}

func (it *projectIter) NextBatch() (*relation.Batch, error) {
	b, err := it.child.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	it.op.observe(b.Len())
	if it.perm != nil {
		return b.Remapped(it.s, it.perm), nil
	}
	it.out.Reset()
	n := b.Len()
	vals := make([]value.Value, len(it.cols))
	for i := 0; i < n; i++ {
		t := b.TupleInto(it.scratch, i)
		for c, col := range it.cols {
			vals[c] = col.Expr.Eval(t)
		}
		it.out.AppendValues(vals...)
	}
	return it.out, nil
}

// dedup dedups rows across batches on vectorized canonical hashes,
// retaining accepted rows in an accumulator batch for value-wise
// confirmation (bucket+confirm, like relation.Distinct).
type dedup struct {
	acc  *relation.Batch
	seen map[uint64]int32
	over map[uint64][]int32
	hbuf []uint64
	sel  []int32
}

func newDedup(s *relation.Scheme) *dedup {
	return &dedup{acc: relation.NewBatch(s), seen: map[uint64]int32{}}
}

// filter returns the physical row ids of b whose rows are new, in
// order, and retains them. The returned slice is reused across calls.
func (d *dedup) filter(b *relation.Batch) []int32 {
	n := b.Len()
	if cap(d.hbuf) < n {
		d.hbuf = make([]uint64, n)
	}
	hs := d.hbuf[:n]
	b.HashRows(hs, nil)
	d.sel = d.sel[:0]
	for i := 0; i < n; i++ {
		h := hs[i]
		if j, ok := d.seen[h]; ok {
			if d.acc.EqualRows(int(j), b, i) {
				continue
			}
			dup := false
			for _, k := range d.over[h] {
				if d.acc.EqualRows(int(k), b, i) {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			if d.over == nil {
				d.over = map[uint64][]int32{}
			}
			d.over[h] = append(d.over[h], int32(d.acc.Rows()))
		} else {
			d.seen[h] = int32(d.acc.Rows())
		}
		d.acc.AppendRow(b, b.RowID(i))
		d.sel = append(d.sel, int32(b.RowID(i)))
	}
	return d.sel
}

// distinctIter streams the child with duplicates removed, keeping
// first occurrences.
type distinctIter struct {
	child Iterator
	d     *dedup
	op    opStats
}

func newDistinctIter(child Iterator, op opStats) *distinctIter {
	return &distinctIter{child: child, d: newDedup(child.Scheme()), op: op}
}

func (it *distinctIter) Scheme() *relation.Scheme { return it.child.Scheme() }
func (it *distinctIter) Name() string             { return it.child.Name() }
func (it *distinctIter) Close() {
	it.child.Close()
	it.op.close()
}

func (it *distinctIter) NextBatch() (*relation.Batch, error) {
	for {
		b, err := it.child.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, nil
		}
		sel := it.d.filter(b)
		if len(sel) > 0 {
			it.op.observe(len(sel))
			return b.View(sel), nil
		}
	}
}
