package algebra

// Grace-hash spill join: when the context budget carries a spill
// directory (budget.Budget.SpillDir), openJoin routes here instead of
// materializing both children unconditionally. Each side sinks through
// a spillSide: rows are retained in memory as a batch and charged
// against the budget until a charge fails, at which point everything
// seen so far — and everything still streaming — is hash-partitioned
// to temp files on the side's equi-join columns and the memory charges
// refunded. The join then runs partition by partition: equal keys hash
// to the same partition on both sides (the canonical hashes normalize
// cross-kind numeric equality, and null keys hash identically on both
// sides), so each per-partition join kernel — matches, residual
// predicates, and outer padding included — is globally exact. Every
// join kernel opened here emits at most SpillBatchSize rows per batch.
//
// Partition pairs are processed one at a time off a task queue (see
// graceJoinIter): an oversized pair — skewed keys whose partition
// exceeds the resident cap — is recursively re-partitioned with a
// fresh per-depth hash salt up to the budget's recursion limit (then a
// typed abort naming "recursion_exhausted"). A pair is replayed until
// a load is refused; nothing is refused before that.
//
// The Grace join runs on the consumer's goroutine; only a pair's join
// kernel may run morsel workers, which take no charge and whose panics
// re-raise on the consumer's goroutine (runWorkers). Every step that
// takes a charge or creates a partition file registers it with its
// owner before the next call that can fail or panic, so an error
// return or a panic unwinding through the join leaves no charge and no
// file once the iterator is closed.
//
// Joins with no equi conjunct cannot be hash-partitioned; an
// over-budget build side there stays a typed abort (the budget error
// carries spill state "enabled" so operators can tell it apart from
// spill-disabled refusals).

import (
	"context"
	"errors"

	"clio/internal/budget"
	"clio/internal/expr"
	"clio/internal/relation"
	"clio/internal/spill"
	"clio/internal/value"
)

// spillSide is one sunk join input: fully in memory (b), in memory
// partitioned to match a spilled counterpart (groups, selection views
// of b), or spilled to temp-file partitions (parts).
type spillSide struct {
	scheme *relation.Scheme
	cols   []int // equi-join hash positions within scheme
	b      *relation.Batch
	groups []*relation.Batch
	parts  *spill.PartitionSet
	// rows/bytes are the retained in-memory charges (zero for base
	// relations, which the instance pins regardless of this join).
	rows, bytes int64
}

// close refunds the side's memory charges and removes its spill files.
func (sd *spillSide) close(tr *budget.Tracker) {
	if sd == nil {
		return
	}
	tr.Refund(sd.rows, sd.bytes)
	sd.rows, sd.bytes = 0, 0
	sd.parts.Close()
}

// spilled reports whether the side overflowed to disk.
func (sd *spillSide) spilled() bool { return sd.parts != nil }

// partitionMem splits an in-memory side into n hash groups so it can
// join a spilled counterpart partition by partition. The groups are
// views of the side's batch, so nothing new is charged.
func (sd *spillSide) partitionMem(n int) {
	if sd.b == nil || sd.groups != nil {
		return
	}
	sd.groups = splitSalted(sd.b, sd.cols, n, 0)
}

// openSide prepares one child for sinking: base relations (scans and
// already-materialized nodes) come back as their cached columns — they
// are instance state, not new materialization, so they are neither
// charged nor spilled — and anything else as its open iterator.
func openSide(ctx context.Context, n Node, in *relation.Instance) (Iterator, *relation.Batch, error) {
	if b, ok, err := baseColumns(n, in); ok {
		return nil, b, err
	}
	it, err := Open(ctx, n, in)
	return it, nil, err
}

// sinkSide drains one join input into a spillSide, switching from
// charged in-memory retention to Grace-hash temp-file partitions the
// moment the budget refuses a charge. Each row is charged its
// ApproxBytesRow, so a side refuses at the same row whatever the batch
// boundaries. cols are the side's equi-join positions; without them an
// over-budget side cannot spill and the budget error propagates as a
// typed abort. The iterator (when any) is closed in all cases, and a
// side that is not returned — an error or a panic while sinking — is
// closed too.
func sinkSide(tr *budget.Tracker, it Iterator, base *relation.Batch, cols []int) (*spillSide, error) {
	if base != nil {
		return &spillSide{scheme: base.Scheme(), cols: cols, b: base}, nil
	}
	defer it.Close()
	side := &spillSide{scheme: it.Scheme(), cols: cols, b: relation.NewBatch(it.Scheme())}
	sunk := false
	defer func() {
		if !sunk {
			side.close(tr)
		}
	}()
	var sel []int32
	// A frame is encoded as it is added, so rows go to the partitions
	// through one borrowed scratch tuple.
	scratch := make([]value.Value, side.scheme.Arity())
	for {
		b, err := it.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			sunk = true
			return side, nil
		}
		n, i := b.Len(), 0
		if !side.spilled() {
			var cerr error
			for ; i < n; i++ {
				by := b.ApproxBytesRow(i)
				if cerr = tr.Charge(1, by); cerr != nil {
					break
				}
				side.rows++
				side.bytes += by
			}
			if i == n {
				side.b.AppendBatch(b)
				continue
			}
			if i > 0 {
				sel = sel[:0]
				for j := 0; j < i; j++ {
					sel = append(sel, int32(b.RowID(j)))
				}
				side.b.AppendBatch(b.View(sel))
			}
			if len(cols) == 0 {
				return nil, cerr
			}
			// Overflow: move the retained prefix to disk, refund its
			// memory, and keep streaming straight to the partitions.
			side.parts = spill.NewPartitionSet(tr, spill.DefaultPartitions, cols)
			for j := 0; j < side.b.Len(); j++ {
				if err := side.parts.Add(side.b.TupleInto(scratch, j)); err != nil {
					return nil, err
				}
			}
			tr.Refund(side.rows, side.bytes)
			side.rows, side.bytes = 0, 0
			side.b = nil
		}
		for ; i < n; i++ {
			if err := side.parts.Add(b.TupleInto(scratch, i)); err != nil {
				return nil, err
			}
		}
	}
}

// openSpillJoin is openJoin under a spill-enabled budget. Until it
// returns an iterator it owns the open children, the sunk sides and
// the span, and releases them on an error return or a panic.
func openSpillJoin(ctx context.Context, kind JoinKind, l, r Node, on expr.Expr, in *relation.Instance) (Iterator, error) {
	ctx, span := openJoinSpan(ctx, kind, on)
	tr := budget.FromContext(ctx)
	// li and ri are the children not yet handed to sinkSide, which
	// closes what it is given.
	var li, ri Iterator
	var left, right *spillSide
	opened := false
	defer func() {
		if opened {
			return
		}
		if li != nil {
			li.Close()
		}
		if ri != nil {
			ri.Close()
		}
		left.close(tr)
		right.close(tr)
		span.End()
	}()
	li, lbase, err := openSide(ctx, l, in)
	if err != nil {
		return nil, err
	}
	ri, rbase, err := openSide(ctx, r, in)
	if err != nil {
		return nil, err
	}
	ls, rs := sideScheme(li, lbase), sideScheme(ri, rbase)
	var lcols, rcols []int
	if on != nil {
		if eqL, eqR, _ := SplitEquiConjuncts(on, ls, rs); len(eqL) > 0 {
			lcols = ls.Positions(eqL...)
			rcols = rs.Positions(eqR...)
		}
	}
	sinkL := li
	li = nil
	if left, err = sinkSide(tr, sinkL, lbase, lcols); err != nil {
		return nil, err
	}
	sinkR := ri
	ri = nil
	if right, err = sinkSide(tr, sinkR, rbase, rcols); err != nil {
		return nil, err
	}
	if !left.spilled() && !right.spilled() {
		// Everything fit: the in-memory kernel, with the sides'
		// retained charges released when it closes.
		opened = true
		return &sideReleaseIter{
			Iterator: newJoinKernel(ctx, opStats{span: span}, kind, left.b, right.b, on, SpillBatchSize),
			tr:       tr,
			sides:    [2]*spillSide{left, right},
		}, nil
	}
	n := spill.DefaultPartitions
	span.SetBool("spilled", true)
	span.SetInt("partitions", int64(n))
	if left.spilled() {
		left.parts.RecordStats()
	}
	if right.spilled() {
		right.parts.RecordStats()
	}
	left.partitionMem(n)
	right.partitionMem(n)
	it := &graceJoinIter{
		ctx:      ctx,
		tr:       tr,
		kind:     kind,
		on:       on,
		s:        ls.Concat(rs),
		left:     left,
		right:    right,
		maxDepth: tr.RecursionLimit(),
		op:       opStats{span: span},
	}
	it.queue = make([]pairTask, n)
	for i := range it.queue {
		it.queue[i] = pairTask{l: sideSrc(left, i), r: sideSrc(right, i)}
	}
	opened = true
	return it, nil
}

func sideScheme(it Iterator, base *relation.Batch) *relation.Scheme {
	if base != nil {
		return base.Scheme()
	}
	return it.Scheme()
}

// sideReleaseIter is a join kernel over fully-sunk in-memory sides; it
// refunds the sides' retained charges on Close (the join output is the
// consumer's to account for).
type sideReleaseIter struct {
	Iterator
	tr    *budget.Tracker
	sides [2]*spillSide
}

func (it *sideReleaseIter) Close() {
	it.Iterator.Close()
	it.sides[0].close(it.tr)
	it.sides[1].close(it.tr)
}

// pairSrc is one side of one partition-pair task: either partition idx
// of a PartitionSet (a spilled side, or a recursive child set) or an
// in-memory hash group (an unspilled side, possibly a recursive salted
// sub-split — a selection view of its parent's batch).
type pairSrc struct {
	scheme *relation.Scheme
	cols   []int
	b      *relation.Batch     // in-memory group; nil when on disk
	ps     *spill.PartitionSet // disk source; nil for b
	idx    int
}

// sideSrc builds the depth-0 source for partition i of a sunk side.
func sideSrc(sd *spillSide, i int) pairSrc {
	src := pairSrc{scheme: sd.scheme, cols: sd.cols, idx: i}
	if sd.spilled() {
		src.ps = sd.parts
	} else {
		src.b = sd.groups[i]
	}
	return src
}

// load materializes the source as a charged in-memory batch.
// In-memory groups cost nothing (they share their parent's storage);
// disk partitions charge each decoded tuple. A load that does not
// return the batch — an error or a panic — refunds its charges.
func (src *pairSrc) load(tr *budget.Tracker) (*relation.Batch, int64, int64, error) {
	if src.ps == nil {
		return src.b, 0, 0, nil
	}
	b := relation.NewBatch(src.scheme)
	var rows, bytes int64
	loaded := false
	defer func() {
		if !loaded {
			tr.Refund(rows, bytes)
		}
	}()
	err := src.ps.Read(src.idx, src.scheme, func(t relation.Tuple) error {
		by := t.ApproxBytes()
		if err := tr.Charge(1, by); err != nil {
			return err
		}
		rows++
		bytes += by
		b.AppendTuple(t)
		return nil
	})
	if err != nil {
		return nil, 0, 0, err
	}
	loaded = true
	return b, rows, bytes, nil
}

// pairTask is one pending partition pair at some recursion depth.
// owner tracks the child PartitionSets the task reads from so they can
// be closed once every sibling has been joined (nil at depth 0, where
// the sides themselves own the sets).
type pairTask struct {
	l, r  pairSrc
	depth int
	owner *childSets
}

// childSets refcounts the salted child sets produced by one recursion:
// closed (files removed, disk refunded) when all fan-out siblings have
// been processed, or at iterator Close.
type childSets struct {
	sets      []*spill.PartitionSet
	remaining int
	closed    bool
}

func (c *childSets) close() {
	if c == nil || c.closed {
		return
	}
	c.closed = true
	for _, ps := range c.sets {
		ps.Close()
	}
}

// graceJoinIter joins two partitioned sides pair by pair from a task
// queue: load both halves of the pair (charged), run the join kernel,
// refund, release, advance. Matched pairs and outer padding
// are per-partition exact because equal keys — and null keys — land in
// the same partition on both sides at every depth.
//
// A pair whose load is refused by the budget is re-partitioned — both
// halves, with a fresh per-depth salt — into fan-out child pairs
// appended to the queue, up to the budget's recursion limit; past the
// limit the refusal escalates to a typed abort naming spill state
// "recursion_exhausted".
type graceJoinIter struct {
	ctx         context.Context
	tr          *budget.Tracker
	kind        JoinKind
	on          expr.Expr
	s           *relation.Scheme
	left, right *spillSide
	maxDepth    int
	queue       []pairTask
	owners      []*childSets
	cur         pairTask
	inner       Iterator
	loadedRows  int64
	loadedBytes int64
	emitted     bool // current pair has produced output (recursion no longer exact)
	op          opStats
}

func (it *graceJoinIter) Scheme() *relation.Scheme { return it.s }
func (it *graceJoinIter) Name() string             { return "" }

func (it *graceJoinIter) Close() {
	if it.op.done {
		return
	}
	if it.inner != nil {
		it.inner.Close()
		it.inner = nil
	}
	it.tr.Refund(it.loadedRows, it.loadedBytes)
	it.loadedRows, it.loadedBytes = 0, 0
	for _, o := range it.owners {
		o.close()
	}
	it.left.close(it.tr)
	it.right.close(it.tr)
	it.op.close()
}

func (it *graceJoinIter) NextBatch() (*relation.Batch, error) {
	if err := it.ctx.Err(); err != nil {
		return nil, err
	}
	for {
		if it.inner == nil {
			lb, rb, ok, err := it.nextPair()
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, nil
			}
			it.inner = newJoinKernel(it.ctx, opStats{}, it.kind, lb, rb, it.on, SpillBatchSize)
			it.emitted = false
		}
		b, err := it.inner.NextBatch()
		if err != nil {
			rerr, handled := it.recoverInnerBudget(err)
			if !handled {
				return nil, err
			}
			if rerr != nil {
				return nil, rerr
			}
			continue
		}
		if b != nil {
			it.emitted = true
			it.op.observe(b.Len())
			return b, nil
		}
		it.inner.Close()
		it.inner = nil
		it.tr.Refund(it.loadedRows, it.loadedBytes)
		it.loadedRows, it.loadedBytes = 0, 0
		it.releaseTask(it.cur)
	}
}

// recoverInnerBudget handles a budget refusal raised by the in-memory
// join of the current pair before it emitted any output: the pair
// loaded, but its join state and first output batch cannot coexist
// with it under the cap — the same condition as a refused load, one
// batch later. Since nothing was emitted, re-partitioning the pair is
// still exact, so it recurses (or escalates past the depth limit)
// exactly like nextPair. handled=false propagates the error unchanged:
// non-budget failures, disk-cap aborts, recursion disabled, and pairs
// that already emitted (recursing those would duplicate output).
func (it *graceJoinIter) recoverInnerBudget(err error) (rerr error, handled bool) {
	var be *budget.Error
	if it.emitted || !errors.As(err, &be) || be.Limit == "spill" {
		return nil, false
	}
	if it.cur.depth >= it.maxDepth {
		if it.maxDepth == 0 {
			return nil, false
		}
		return &budget.Error{
			Limit: be.Limit, Max: be.Max, Got: be.Got,
			Spill: budget.SpillRecursionExhausted,
		}, true
	}
	it.inner.Close()
	it.inner = nil
	it.tr.Refund(it.loadedRows, it.loadedBytes)
	it.loadedRows, it.loadedBytes = 0, 0
	if err := it.recurse(it.cur); err != nil {
		return err, true
	}
	return nil, true
}

// nextPair loads the next partition pair, recursing on budget
// refusals until the pair fits or the depth limit is hit.
func (it *graceJoinIter) nextPair() (*relation.Batch, *relation.Batch, bool, error) {
	for len(it.queue) > 0 {
		task := it.queue[0]
		it.queue = it.queue[1:]
		lb, rb, rows, bytes, err := it.loadPair(task)
		if err == nil {
			it.cur = task
			it.loadedRows, it.loadedBytes = rows, bytes
			return lb, rb, true, nil
		}
		// Partial charges were refunded by the load. Only an in-memory
		// budget refusal is recursable: I/O faults, ctx cancellation,
		// and the disk cap propagate as typed aborts unchanged.
		var be *budget.Error
		if !errors.As(err, &be) || be.Limit == "spill" {
			return nil, nil, false, err
		}
		if task.depth >= it.maxDepth {
			if it.maxDepth == 0 {
				// Recursion disabled: the plain spill-enabled refusal
				// (the operator's remedy is -spill-recursion-depth).
				return nil, nil, false, err
			}
			return nil, nil, false, &budget.Error{
				Limit: be.Limit, Max: be.Max, Got: be.Got,
				Spill: budget.SpillRecursionExhausted,
			}
		}
		if rerr := it.recurse(task); rerr != nil {
			return nil, nil, false, rerr
		}
	}
	return nil, nil, false, nil
}

// loadPair loads both halves of a task, charged. A pair that is not
// returned — an error or a panic in the right half's load — refunds
// the left half's charges too.
func (it *graceJoinIter) loadPair(task pairTask) (*relation.Batch, *relation.Batch, int64, int64, error) {
	lb, lrows, lbytes, err := task.l.load(it.tr)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	loaded := false
	defer func() {
		if !loaded {
			it.tr.Refund(lrows, lbytes)
		}
	}()
	rb, rrows, rbytes, err := task.r.load(it.tr)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	loaded = true
	return lb, rb, lrows + rrows, lbytes + rbytes, nil
}

// releaseTask retires a completed (or recursed) task, closing its
// owning child sets once every sibling is done.
func (it *graceJoinIter) releaseTask(task pairTask) {
	if task.owner == nil {
		return
	}
	task.owner.remaining--
	if task.owner.remaining == 0 {
		task.owner.close()
	}
}

// recurse re-partitions both halves of an oversized pair with the next
// depth's salt and queues the fan-out child pairs. The parent disk
// partitions are dropped once split (their bytes refunded); in-memory
// halves split into salted sub-groups sharing the parent's columns.
// The child sets are registered with the iterator before either half
// splits, so Close removes them whatever the split does.
func (it *graceJoinIter) recurse(task pairTask) error {
	depth := task.depth + 1
	salt := spill.DepthSalt(depth)
	fan := spill.DefaultPartitions
	owner := &childSets{remaining: fan}
	it.owners = append(it.owners, owner)
	split := func(src pairSrc) (*spill.PartitionSet, []*relation.Batch, error) {
		if src.ps == nil {
			return nil, splitSalted(src.b, src.cols, fan, salt), nil
		}
		child, err := src.ps.Repartition(src.idx, src.scheme, fan, salt)
		if err != nil {
			return nil, nil, err
		}
		owner.sets = append(owner.sets, child)
		src.ps.DropPart(src.idx)
		it.tr.NoteRecursion(depth)
		return child, nil, nil
	}
	lps, lsub, err := split(task.l)
	if err != nil {
		return err
	}
	rps, rsub, err := split(task.r)
	if err != nil {
		return err
	}
	for i := 0; i < fan; i++ {
		ct := pairTask{depth: depth, owner: owner}
		ct.l = childSrc(task.l, lps, lsub, i)
		ct.r = childSrc(task.r, rps, rsub, i)
		it.queue = append(it.queue, ct)
	}
	it.releaseTask(task)
	return nil
}

// childSrc derives the child source for fan-out slot i of a recursed
// parent source.
func childSrc(parent pairSrc, ps *spill.PartitionSet, sub []*relation.Batch, i int) pairSrc {
	src := pairSrc{scheme: parent.scheme, cols: parent.cols, idx: i}
	if ps != nil {
		src.ps = ps
	} else {
		src.b = sub[i]
	}
	return src
}

// splitSalted splits a batch's visible rows into n salted hash groups
// on cols, with byte-identical routing to a spilled counterpart
// (spill.RouteHash over HashRowsOn ≡ spill.Route). The groups are
// selection views of b, so nothing new is charged.
func splitSalted(b *relation.Batch, cols []int, n int, salt uint64) []*relation.Batch {
	hs := make([]uint64, b.Len())
	b.HashRowsOn(cols, hs, nil)
	sels := make([][]int32, n)
	for i := range sels {
		sels[i] = []int32{}
	}
	for i, h := range hs {
		g := spill.RouteHash(h, salt, n)
		sels[g] = append(sels[g], int32(b.RowID(i)))
	}
	out := make([]*relation.Batch, n)
	for i, sel := range sels {
		out[i] = b.View(sel)
	}
	return out
}
