package algebra

// Grace-hash spill join: when the context budget carries a spill
// directory (budget.Budget.SpillDir), Join.Open routes here instead of
// materializing both children unconditionally. Each side sinks through
// a spillSide: tuples are retained in memory and charged against the
// budget until a charge fails, at which point everything seen so far —
// and everything still streaming — is hash-partitioned to temp files
// on the side's equi-join columns and the memory charges refunded.
// The join then runs partition by partition: equal keys hash to the
// same partition on both sides (the canonical tuple hashes normalize
// cross-kind numeric equality, and null keys hash identically on both
// sides), so each per-partition joinIter — matches, residual
// predicates, and outer padding included — is globally exact.
//
// Partition pairs are processed one at a time off a task queue (see
// graceJoinIter): an oversized pair — skewed keys whose partition
// exceeds the resident cap — is recursively re-partitioned with a
// fresh per-depth hash salt up to the budget's recursion limit (then a
// typed abort naming "recursion_exhausted"). The recorded
// per-partition statistics feed an up-front feasibility check
// (pairReplayBound) so a provably-doomed replay aborts before paying
// any partition I/O.
//
// Everything runs on the consumer's goroutine. Every step that takes a
// charge or creates a partition file registers it with its owner
// before the next call that can fail or panic, so an error return or a
// panic unwinding through the join leaves no charge and no file once
// the iterator is closed.
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
)

// spillSide is one sunk join input: fully in memory (rel), in memory
// partitioned to match a spilled counterpart (groups), or spilled to
// temp-file partitions (parts).
type spillSide struct {
	name   string
	scheme *relation.Scheme
	cols   []int // equi-join hash positions within scheme
	rel    *relation.Relation
	groups []*relation.Relation
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
// join a spilled counterpart partition by partition. The groups share
// tuple storage with rel, so nothing new is charged.
func (sd *spillSide) partitionMem(n int) {
	if sd.rel == nil || sd.groups != nil {
		return
	}
	sd.groups = splitRelSalted(sd.rel, sd.scheme, sd.cols, n, 0)
}

// openSide prepares one child for sinking: base relations (scans and
// already-materialized nodes) come back as a pinned relation — they
// are instance state, not new materialization, so they are neither
// charged nor spilled — and anything else as its open iterator.
func openSide(ctx context.Context, n Node, in *relation.Instance) (Iterator, *relation.Relation, error) {
	switch x := n.(type) {
	case Scan:
		r, err := x.Eval(in)
		return nil, r, err
	case Materialized:
		return nil, x.Rel, nil
	}
	it, err := n.Open(ctx, in)
	return it, nil, err
}

// sinkSide drains one join input into a spillSide, switching from
// charged in-memory retention to Grace-hash temp-file partitions the
// moment the budget refuses a charge. cols are the side's equi-join
// positions; without them an over-budget side cannot spill and the
// budget error propagates as a typed abort. The iterator (when any) is
// closed in all cases, and a side that is not returned — an error or a
// panic while sinking — is closed too.
func sinkSide(tr *budget.Tracker, it Iterator, base *relation.Relation, cols []int) (*spillSide, error) {
	if base != nil {
		return &spillSide{name: base.Name, scheme: base.Scheme(), cols: cols, rel: base}, nil
	}
	defer it.Close()
	side := &spillSide{
		name:   it.Name(),
		scheme: it.Scheme(),
		cols:   cols,
		rel:    relation.New(it.Name(), it.Scheme()),
	}
	sunk := false
	defer func() {
		if !sunk {
			side.close(tr)
		}
	}()
	for {
		batch, err := it.Next()
		if err != nil {
			return nil, err
		}
		if batch == nil {
			sunk = true
			return side, nil
		}
		for _, t := range batch {
			if side.spilled() {
				if err := side.parts.Add(t); err != nil {
					return nil, err
				}
				continue
			}
			b := t.ApproxBytes()
			cerr := tr.Charge(1, b)
			if cerr == nil {
				side.rel.Add(t)
				side.rows++
				side.bytes += b
				continue
			}
			if len(cols) == 0 {
				return nil, cerr
			}
			// Overflow: move the retained prefix to disk, refund its
			// memory, and keep streaming straight to the partitions.
			side.parts = spill.NewPartitionSet(tr, spill.DefaultPartitions, cols)
			for _, u := range side.rel.Tuples() {
				if err := side.parts.Add(u); err != nil {
					return nil, err
				}
			}
			tr.Refund(side.rows, side.bytes)
			side.rows, side.bytes = 0, 0
			side.rel = nil
			if err := side.parts.Add(t); err != nil {
				return nil, err
			}
		}
	}
}

// openSpillJoin is Join.Open under a spill-enabled budget. Until it
// returns an iterator it owns the open children, the sunk sides and
// the span, and releases them on an error return or a panic.
func openSpillJoin(ctx context.Context, j Join, in *relation.Instance) (Iterator, error) {
	ctx, span := openOp(ctx, "op.join")
	span.SetStr("kind", j.Kind.String())
	if j.EstRows > 0 {
		span.SetInt("est_rows", j.EstRows)
	}
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
	li, lbase, err := openSide(ctx, j.L, in)
	if err != nil {
		return nil, err
	}
	ri, rbase, err := openSide(ctx, j.R, in)
	if err != nil {
		return nil, err
	}
	ls, rs := sideScheme(li, lbase), sideScheme(ri, rbase)
	eqL, eqR, _ := SplitEquiConjuncts(j.On, ls, rs)
	var lcols, rcols []int
	if len(eqL) > 0 {
		lcols = ls.Positions(eqL...)
		rcols = rs.Positions(eqR...)
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
		// Everything fit: the standard streaming join, with the sides'
		// retained charges released when it closes.
		opened = true
		return &sideReleaseIter{
			joinIter: newJoinIter(ctx, span, j.Kind, left.rel, right.rel, j.On),
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
	if err := pairReplayBound(tr, left, right, n); err != nil {
		return nil, err
	}
	left.partitionMem(n)
	right.partitionMem(n)
	it := &graceJoinIter{
		ctx:      ctx,
		tr:       tr,
		kind:     j.Kind,
		on:       j.On,
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

// pairReplayBound is the join's up-front spill verdict: from the
// recorded partition statistics, the largest pair's disk footprint is
// a certain lower bound on the rows/bytes its replay must charge (one
// frame is one resident row, and frame bytes are always below the
// decoded tuple's ApproxBytes). If even the recursion budget cannot
// divide that pair under the caps, every replay is guaranteed to
// abort — refuse before paying any partition I/O.
func pairReplayBound(tr *budget.Tracker, left, right *spillSide, n int) error {
	var maxRows, maxBytes int64
	for i := 0; i < n; i++ {
		var rows, bytes int64
		for _, sd := range [2]*spillSide{left, right} {
			if sd.spilled() {
				rows += int64(sd.parts.Tuples(i))
				bytes += sd.parts.PartBytes(i)
			}
		}
		if rows > maxRows {
			maxRows = rows
		}
		if bytes > maxBytes {
			maxBytes = bytes
		}
	}
	limit := tr.RecursionLimit()
	state := budget.SpillRecursionExhausted
	if limit == 0 {
		// Recursion disabled: the refusal is the plain spill-enabled
		// kind, same as discovering it at load time.
		state = budget.SpillEnabled
	}
	lim := tr.Limits()
	if d := budget.SpillDepthLowerBound(maxRows, lim.MaxRows, n); d > limit {
		return &budget.Error{Limit: "rows", Max: lim.MaxRows, Got: tr.Rows() + maxRows, Spill: state}
	}
	if d := budget.SpillDepthLowerBound(maxBytes, lim.MaxBytes, n); d > limit {
		return &budget.Error{Limit: "bytes", Max: lim.MaxBytes, Got: tr.Bytes() + maxBytes, Spill: state}
	}
	return nil
}

func sideScheme(it Iterator, base *relation.Relation) *relation.Scheme {
	if base != nil {
		return base.Scheme()
	}
	return it.Scheme()
}

// sideReleaseIter is a joinIter over fully-sunk in-memory sides; it
// refunds the sides' retained charges on Close (the join output is the
// consumer's to account for).
type sideReleaseIter struct {
	*joinIter
	tr    *budget.Tracker
	sides [2]*spillSide
}

func (it *sideReleaseIter) Close() {
	it.joinIter.Close()
	it.sides[0].close(it.tr)
	it.sides[1].close(it.tr)
}

// pairSrc is one side of one partition-pair task: either partition idx
// of a PartitionSet (a spilled side, or a recursive child set) or an
// in-memory hash group (an unspilled side, possibly a recursive salted
// sub-split sharing tuple storage with its parent).
type pairSrc struct {
	name   string
	scheme *relation.Scheme
	cols   []int
	rel    *relation.Relation  // in-memory group; nil when on disk
	ps     *spill.PartitionSet // disk source; nil for rel
	idx    int
}

// sideSrc builds the depth-0 source for partition i of a sunk side.
func sideSrc(sd *spillSide, i int) pairSrc {
	src := pairSrc{name: sd.name, scheme: sd.scheme, cols: sd.cols, idx: i}
	if sd.spilled() {
		src.ps = sd.parts
	} else {
		src.rel = sd.groups[i]
	}
	return src
}

// load materializes the source as a charged in-memory relation.
// In-memory groups cost nothing (they share their parent's storage);
// disk partitions charge each decoded tuple. A load that does not
// return the relation — an error or a panic — refunds its charges.
func (src *pairSrc) load(tr *budget.Tracker) (*relation.Relation, int64, int64, error) {
	if src.ps == nil {
		return src.rel, 0, 0, nil
	}
	rel := relation.New(src.name, src.scheme)
	var rows, bytes int64
	loaded := false
	defer func() {
		if !loaded {
			tr.Refund(rows, bytes)
		}
	}()
	err := src.ps.Read(src.idx, src.scheme, func(t relation.Tuple) error {
		b := t.ApproxBytes()
		if err := tr.Charge(1, b); err != nil {
			return err
		}
		rows++
		bytes += b
		rel.Add(t)
		return nil
	})
	if err != nil {
		return nil, 0, 0, err
	}
	loaded = true
	return rel, rows, bytes, nil
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
// queue: load both halves of the pair (charged), run the standard
// joinIter, refund, release, advance. Matched pairs and outer padding
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
	inner       *joinIter
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

func (it *graceJoinIter) Next() ([]relation.Tuple, error) {
	if err := it.ctx.Err(); err != nil {
		return nil, err
	}
	for {
		if it.inner == nil {
			lrel, rrel, ok, err := it.nextPair()
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, nil
			}
			it.inner = newJoinIter(it.ctx, nil, it.kind, lrel, rrel, it.on)
			it.emitted = false
		}
		batch, err := it.inner.Next()
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
		if batch != nil {
			it.emitted = true
			it.op.observe(batch)
			return batch, nil
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
func (it *graceJoinIter) nextPair() (*relation.Relation, *relation.Relation, bool, error) {
	for len(it.queue) > 0 {
		task := it.queue[0]
		it.queue = it.queue[1:]
		lrel, rrel, rows, bytes, err := it.loadPair(task)
		if err == nil {
			it.cur = task
			it.loadedRows, it.loadedBytes = rows, bytes
			return lrel, rrel, true, nil
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
func (it *graceJoinIter) loadPair(task pairTask) (*relation.Relation, *relation.Relation, int64, int64, error) {
	lrel, lr, lb, err := task.l.load(it.tr)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	loaded := false
	defer func() {
		if !loaded {
			it.tr.Refund(lr, lb)
		}
	}()
	rrel, rr, rb, err := task.r.load(it.tr)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	loaded = true
	return lrel, rrel, lr + rr, lb + rb, nil
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
// halves split into salted sub-groups sharing the parent's storage.
// The child sets are registered with the iterator before either half
// splits, so Close removes them whatever the split does.
func (it *graceJoinIter) recurse(task pairTask) error {
	depth := task.depth + 1
	salt := spill.DepthSalt(depth)
	fan := spill.DefaultPartitions
	owner := &childSets{remaining: fan}
	it.owners = append(it.owners, owner)
	split := func(src pairSrc) (*spill.PartitionSet, []*relation.Relation, error) {
		if src.ps == nil {
			return nil, splitRelSalted(src.rel, src.scheme, src.cols, fan, salt), nil
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
func childSrc(parent pairSrc, ps *spill.PartitionSet, sub []*relation.Relation, i int) pairSrc {
	src := pairSrc{name: parent.name, scheme: parent.scheme, cols: parent.cols, idx: i}
	if ps != nil {
		src.ps = ps
	} else {
		src.rel = sub[i]
	}
	return src
}

// splitRelSalted splits an in-memory relation into n salted hash
// groups on cols, with byte-identical routing to a spilled counterpart
// (spill.Route). The groups share tuple storage with rel, so nothing
// new is charged.
func splitRelSalted(rel *relation.Relation, s *relation.Scheme, cols []int, n int, salt uint64) []*relation.Relation {
	out := make([]*relation.Relation, n)
	for i := range out {
		out[i] = relation.New(rel.Name, s)
	}
	for _, t := range rel.Tuples() {
		out[spill.Route(t, cols, salt, n)].Add(t)
	}
	return out
}
