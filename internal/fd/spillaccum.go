package fd

// The D(G) accumulator tier. Every D(G) algorithm funnels its padded
// candidate tuples through a dgSink; which sink depends on the budget:
//
//   - memSink reproduces the original in-memory pipeline exactly —
//     append everything (charged cumulatively), then one
//     Distinct + RemoveSubsumed sweep. This is the only sink used when
//     no spill directory is configured, so non-spill behavior — charge
//     accounting included — is unchanged.
//   - dgAccum is the spill-aware accumulator: it dedups eagerly (the
//     distinct front is what must fit in memory, not the padded
//     multiset) and, the moment a charge is refused, Grace-hash
//     partitions its state to temp files by whole-tuple hash. Equal
//     tuples share a canonical hash, so equal tuples share a partition
//     and per-partition dedup at finalize time is globally exact. The
//     deduped survivors feed a SubsumeSet, whose Rel() is already the
//     canonically-sorted subsumption front — byte-identical to what
//     memSink's sweep produces for the same multiset.
//
// Charge discipline of dgAccum: while accumulating, the retained
// distinct front is charged (resident accounting); replay charges only
// tuples the SubsumeSet actually keeps — an arrival it subsumes away
// is never charged and entries it evicts are refunded immediately
// (Insert reports them), so residency tracks the maximal front,
// not the distinct multiset. At finalize the accumulator swaps its
// working charges for one charge of the final front, so the caller
// ends in the same "result is charged" state as a cache hit.
//
// Finalize replays the partitions one at a time on the calling
// goroutine. A partition that still exceeds the cap is recursively
// re-partitioned with a fresh per-depth salt, up to the budget's
// recursion limit; past it the abort is typed with spill state
// "recursion_exhausted".

import (
	"context"
	"errors"

	"clio/internal/budget"
	"clio/internal/relation"
	"clio/internal/spill"
	"clio/internal/value"
)

// dgSink accumulates padded D(G) candidate tuples and reduces them to
// the subsumption front. After finalize or abort the sink must not be
// used again; abort is idempotent and safe after a failed add.
type dgSink interface {
	// addBatch retains every visible row of b, which must already be
	// aligned to the sink scheme.
	addBatch(b *relation.Batch) error
	added() int64
	finalize() (*relation.Relation, error)
	abort()
}

// abortOnPanic is deferred by the D(G) algorithms right after they
// create their sink: a panic unwinding through the computation (a
// spill fault's, or a join worker's re-raised on this goroutine)
// aborts the sink, refunding its charges and removing its spill files,
// and continues.
func abortOnPanic(s dgSink) {
	if r := recover(); r != nil {
		s.abort()
		panic(r)
	}
}

// newDGSink picks the accumulator for the tracker's spill mode. ctx
// bounds the finalize replay.
func newDGSink(ctx context.Context, tr *budget.Tracker, s *relation.Scheme) dgSink {
	if tr.SpillEnabled() {
		return &dgAccum{ctx: ctx, tr: tr, s: s, seen: newTupleSeen(64), rel: relation.New("D(G)", s)}
	}
	return &memSink{tr: tr, acc: relation.NewBatch(s)}
}

// tupleSeen is a hash+confirm duplicate filter: tuples bucket on their
// canonical Hash64 and candidates are confirmed value-wise, so the
// filter materializes no per-tuple key strings — the columnar-keys
// discipline of the execution core applied to the spill-front dedup.
// The rare true hash collision spills into an overflow bucket list.
type tupleSeen struct {
	slots  map[uint64]int32
	tuples []relation.Tuple
	over   map[uint64][]int32
}

func newTupleSeen(hint int) *tupleSeen {
	return &tupleSeen{slots: make(map[uint64]int32, hint)}
}

// insert records t and reports whether it was new.
func (s *tupleSeen) insert(t relation.Tuple) bool {
	h := t.Hash64()
	if j, ok := s.slots[h]; ok {
		if s.tuples[j].Equal(t) {
			return false
		}
		for _, k := range s.over[h] {
			if s.tuples[k].Equal(t) {
				return false
			}
		}
		if s.over == nil {
			s.over = map[uint64][]int32{}
		}
		s.over[h] = append(s.over[h], int32(len(s.tuples)))
	} else {
		s.slots[h] = int32(len(s.tuples))
	}
	s.tuples = append(s.tuples, t)
	return true
}

// memSink is the cumulative in-memory accumulator. The padded multiset
// lives purely as column vectors until finalize; only the subsumption
// front ever materializes as tuples. Charge accounting is identical to
// the historical per-tuple pipeline.
type memSink struct {
	tr  *budget.Tracker
	acc *relation.Batch
	n   int64
}

// addBatch charges row by row — a refusal retains the rows charged
// before it and rejects the rest — and gathers the retained rows
// column-wise, never materializing them as tuples.
func (m *memSink) addBatch(b *relation.Batch) error {
	n := b.Len()
	charged := 0
	var chargeErr error
	for i := 0; i < n; i++ {
		if chargeErr = m.tr.Charge(1, b.ApproxBytesRow(i)); chargeErr != nil {
			break
		}
		charged++
	}
	if charged == n {
		m.acc.AppendBatch(b)
	} else if charged > 0 {
		sel := make([]int32, charged)
		for i := range sel {
			sel[i] = int32(b.RowID(i))
		}
		m.acc.AppendBatch(b.View(sel))
	}
	m.n += int64(charged)
	return chargeErr
}

func (m *memSink) added() int64 { return m.n }

func (m *memSink) finalize() (*relation.Relation, error) {
	// RemoveSubsumedBatch dedups internally, so no separate Distinct
	// pass; the accumulated columns are reduced in place.
	return relation.RemoveSubsumedBatch("D(G)", m.acc), nil
}

func (m *memSink) abort() {}

// dgAccum is the spillable accumulator; see the package comment above.
type dgAccum struct {
	ctx  context.Context
	tr   *budget.Tracker
	s    *relation.Scheme
	seen *tupleSeen
	rel  *relation.Relation
	// rows/bytes are the retained in-memory charges.
	rows, bytes int64
	parts       *spill.PartitionSet
	// children holds recursive re-partition sets created during the
	// serial replay; closed with the parent on abort.
	children []*spill.PartitionSet
	scratch  []value.Value // borrowed row for frames once spilled
	n        int64
	closed   bool
}

// addBatch retains b's rows one at a time, in order: a row already in
// the distinct front is dropped, a new one is retained and charged
// while the front has room, and the first refusal moves the front to
// disk, where every later row goes.
func (a *dgAccum) addBatch(b *relation.Batch) error {
	n := b.Len()
	for i := 0; i < n; i++ {
		a.n++
		if a.parts != nil {
			// A frame is encoded as it is added: a borrowed row will do.
			if a.scratch == nil {
				a.scratch = make([]value.Value, a.s.Arity())
			}
			if err := a.parts.Add(b.TupleInto(a.scratch, i)); err != nil {
				return err
			}
			continue
		}
		t := b.Tuple(i)
		if !a.seen.insert(t) {
			continue
		}
		by := t.ApproxBytes()
		if a.roomToRetain(by) && a.tr.Charge(1, by) == nil {
			a.rel.Add(t)
			a.rows++
			a.bytes += by
			continue
		}
		if err := a.spillFront(); err != nil {
			return err
		}
		if err := a.parts.Add(t); err != nil {
			return err
		}
	}
	return nil
}

// spillFront moves the distinct front to disk and refunds its memory.
// Every later row streams straight to the partitions, duplicates
// included — they collapse again, exactly, at finalize.
func (a *dgAccum) spillFront() error {
	a.parts = spill.NewPartitionSet(a.tr, spill.DefaultPartitions, nil)
	for _, u := range a.rel.Tuples() {
		if err := a.parts.Add(u); err != nil {
			return err
		}
	}
	a.tr.Refund(a.rows, a.bytes)
	a.rows, a.bytes = 0, 0
	a.rel, a.seen = nil, nil
	return nil
}

// roomToRetain bounds the retained distinct front to a quarter of each
// in-memory cap. The joins feeding the sink share the same tracker and
// need headroom for partition loads and output batches — a join load
// refused mid-replay is a typed abort, not a spill — so the sink must
// move to disk before it starves them.
func (a *dgAccum) roomToRetain(b int64) bool {
	lim := a.tr.Limits()
	if lim.MaxBytes > 0 && a.bytes+b > lim.MaxBytes/4 {
		return false
	}
	if lim.MaxRows > 0 && a.rows+1 > lim.MaxRows/4 {
		return false
	}
	return true
}

func (a *dgAccum) added() int64 { return a.n }

func (a *dgAccum) finalize() (*relation.Relation, error) {
	var out *relation.Relation
	if a.parts == nil {
		// Never spilled: rel is already distinct, and RemoveSubsumed
		// sorts canonically downstream of the caller's SortByKey.
		out = relation.RemoveSubsumed(a.rel)
	} else {
		a.parts.RecordStats()
		set := relation.NewSubsumeSet(a.s)
		err := a.replay(set)
		if err != nil {
			a.abort()
			return nil, err
		}
		out = set.Rel("D(G)")
	}
	out.Name = "D(G)"
	// Swap the working charges (distinct front / SubsumeSet contents)
	// for one charge of the final front the caller retains.
	a.abort()
	if err := a.tr.Charge(int64(out.Len()), approxRelationBytes(out)); err != nil {
		return nil, err
	}
	return out, nil
}

// replay reduces the spilled partitions into set one at a time off a
// task queue: a partition whose replay is refused by the budget is
// re-partitioned with the next depth's salt and its children queued,
// up to the budget's recursion limit; past it the refusal escalates to
// a typed abort naming spill state "recursion_exhausted". Tuples a
// partial replay already inserted stay charged — the child replay
// re-encounters them as duplicates (equal tuples co-locate under every
// salt) and never double-charges.
func (a *dgAccum) replay(set *relation.SubsumeSet) error {
	limit := a.tr.RecursionLimit()
	type task struct {
		ps    *spill.PartitionSet
		idx   int
		depth int
	}
	queue := make([]task, 0, a.parts.N())
	for i := 0; i < a.parts.N(); i++ {
		queue = append(queue, task{a.parts, i, 0})
	}
	for len(queue) > 0 {
		tk := queue[0]
		queue = queue[1:]
		err := a.replayPartition(tk.ps, tk.idx, set)
		if err == nil {
			continue
		}
		var be *budget.Error
		if !errors.As(err, &be) || be.Limit == "spill" {
			return err
		}
		if tk.depth >= limit {
			if limit == 0 {
				// Recursion disabled: the plain spill-enabled refusal.
				return err
			}
			return &budget.Error{Limit: be.Limit, Max: be.Max, Got: be.Got, Spill: budget.SpillRecursionExhausted}
		}
		child, rerr := tk.ps.Repartition(tk.idx, a.s, spill.DefaultPartitions, spill.DepthSalt(tk.depth+1))
		if rerr != nil {
			return rerr
		}
		a.children = append(a.children, child)
		tk.ps.DropPart(tk.idx)
		a.tr.NoteRecursion(tk.depth + 1)
		for i := 0; i < child.N(); i++ {
			queue = append(queue, task{child, i, tk.depth + 1})
		}
	}
	return nil
}

// replayPartition replays one partition of ps into set, charging what the
// set keeps to the accumulator's resident charges. Insert drops
// repeated and subsumed arrivals (never charged) and evicts entries the
// arrival subsumes (refunded on the spot). A charge refusal removes the
// just-inserted tuple again so residency equals charges; any front
// tuple its eviction orphaned is restored by the recursive child replay
// that re-delivers the refused tuple.
func (a *dgAccum) replayPartition(ps *spill.PartitionSet, idx int, set *relation.SubsumeSet) error {
	return ps.Read(idx, a.s, func(t relation.Tuple) error {
		if err := a.ctx.Err(); err != nil {
			return err
		}
		displaced, inserted := set.Insert(t)
		for _, d := range displaced {
			b := d.ApproxBytes()
			a.tr.Refund(1, b)
			a.rows--
			a.bytes -= b
		}
		if !inserted {
			return nil
		}
		b := t.ApproxBytes()
		if err := a.tr.Charge(1, b); err != nil {
			set.Delete(t)
			return err
		}
		a.rows++
		a.bytes += b
		return nil
	})
}

// abort refunds the retained charges and removes any partition files,
// recursive children included.
func (a *dgAccum) abort() {
	if a.closed {
		return
	}
	a.closed = true
	a.tr.Refund(a.rows, a.bytes)
	a.rows, a.bytes = 0, 0
	a.parts.Close()
	for _, c := range a.children {
		c.Close()
	}
	a.children = nil
}
