// Package budget enforces per-computation resource limits on the
// mapping engine. D(G) is a full-disjunction instance whose size can
// blow up combinatorially with the query graph, so a long-lived
// service must be able to say "this computation may materialize at
// most N rows / M bytes" and get a typed error back instead of an
// OOM kill.
//
// A Budget travels in a context.Context as a shared *Tracker; every
// operator that materializes tuples (joins, cross products, padding)
// charges the tracker as it allocates. The tracker is cumulative over
// all intermediates of one computation — the quantity that actually
// bounds resident memory — and safe for concurrent workers.
//
// The package exists separately from fd so that algebra (which fd
// imports) can charge budgets without an import cycle; fd re-exports
// the user-facing names (fd.Budget, fd.ErrBudgetExceeded).
package budget

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Budget caps one computation. Zero fields are unlimited.
type Budget struct {
	// MaxRows bounds the total number of tuples materialized during
	// the computation, intermediates included.
	MaxRows int64
	// MaxBytes bounds the approximate bytes of those tuples.
	MaxBytes int64
	// SpillDir, when non-empty, turns MaxRows/MaxBytes from a hard
	// refusal into an in-memory cap: operators that support spilling
	// (hash-join build sides, D(G) distinct/subsumption state) write
	// overflow partitions to temp files under this directory instead
	// of aborting, and the trackers switch to resident accounting
	// (Refund returns capacity as state moves to disk or is released).
	SpillDir string
	// MaxSpillBytes bounds the bytes concurrently resident in spill
	// files (0 = unlimited disk). Exceeding it aborts with a typed
	// error whose Spill state is "disk_cap_exceeded".
	MaxSpillBytes int64
	// SpillRecursionDepth bounds how many times an oversized spill
	// partition may be re-partitioned with a fresh hash salt before
	// the operator gives up with a typed abort naming
	// SpillRecursionExhausted. Zero means DefaultSpillRecursionDepth;
	// negative disables recursion (an oversized partition aborts
	// immediately, the pre-recursion behavior).
	SpillRecursionDepth int
}

// DefaultSpillRecursionDepth is the recursion bound applied when
// Budget.SpillRecursionDepth is zero. Each level divides a partition by
// the fan-out (16), so three levels absorb ~4096× skew over one
// partition before giving up.
const DefaultSpillRecursionDepth = 3

// Unlimited reports whether the budget imposes no limit. A spill
// configuration without an in-memory cap is still unlimited: there is
// nothing to spill around.
func (b Budget) Unlimited() bool { return b.MaxRows <= 0 && b.MaxBytes <= 0 }

// The spill states reported by Error.Spill on budget aborts, so
// operators can tell "enable -spill-dir" apart from "raise
// -max-spill-bytes".
const (
	// SpillDisabled: no spill directory is configured; the memory cap
	// is a hard refusal.
	SpillDisabled = "disabled"
	// SpillEnabled: spilling is configured but this state is not
	// spillable (or spilled state still exceeded the in-memory cap).
	SpillEnabled = "enabled"
	// SpillDiskCap: the MaxSpillBytes disk cap itself was exceeded.
	SpillDiskCap = "disk_cap_exceeded"
	// SpillRecursionExhausted: an oversized spill partition was
	// re-partitioned with fresh salts down to the recursion bound and
	// still exceeded the in-memory cap (a hot key whose tuples alone
	// cannot fit: salted re-hashing never separates equal keys).
	SpillRecursionExhausted = "recursion_exhausted"
)

// ErrExceeded is the sentinel matched by errors.Is for any budget
// violation.
var ErrExceeded = errors.New("budget exceeded")

// Error reports which limit a computation exceeded. It matches
// ErrExceeded under errors.Is.
type Error struct {
	// Limit names the exceeded dimension: "rows", "bytes", or "spill".
	Limit string
	// Max is the configured cap, Got the amount reached.
	Max, Got int64
	// Spill names the spill configuration at abort time — one of
	// SpillDisabled, SpillEnabled, SpillDiskCap or
	// SpillRecursionExhausted — so the error tells an operator which
	// knob to turn. Every error the budget packages build sets it.
	Spill string
}

func (e *Error) Error() string {
	return fmt.Sprintf("budget exceeded: %s limit %d reached %d (spill %s)", e.Limit, e.Max, e.Got, e.Spill)
}

// Is matches the ErrExceeded sentinel.
func (e *Error) Is(target error) bool { return target == ErrExceeded }

// Tracker accumulates charges against a budget. A nil tracker accepts
// every charge, so call sites charge unconditionally.
//
// Without a spill directory the tracker is cumulative: every charge
// sticks, so the caps bound the total materialization of the
// computation. With SpillDir set, spilling operators Refund charges as
// tuples move to disk or transient batches are released, so the caps
// bound the state resident in memory at any moment instead.
type Tracker struct {
	b Budget
	// mu makes each charge's check and commit one step, so an amount
	// that is refused is never seen by another charger. Refunds only
	// lower the counters, so they skip mu: a refund that lands during a
	// charge's check can only make the check stricter, and charges
	// commit with Add, so the refund is never overwritten.
	mu    sync.Mutex
	rows  atomic.Int64
	bytes atomic.Int64
	// spill tracks bytes currently resident in spill files; parts
	// counts partition files created and written the cumulative bytes
	// ever spilled (for EXPLAIN and /statusz — resident spill returns
	// to zero when partitions close, so reporting needs the monotone
	// counters).
	spill   atomic.Int64
	parts   atomic.Int64
	written atomic.Int64
	// Spill-tier statistics recorded by the partitioning operators so
	// EXPLAIN can report partition shape without re-reading the files:
	// the per-partition byte maximum and sum (skew), and recursion
	// events with the deepest level reached.
	partCount    atomic.Int64
	partMaxBytes atomic.Int64
	partSumBytes atomic.Int64
	recursions   atomic.Int64
	depthMax     atomic.Int64
}

// NewTracker creates a tracker for the budget. An unlimited budget
// yields a nil tracker (every charge is free).
func NewTracker(b Budget) *Tracker {
	if b.Unlimited() {
		return nil
	}
	return &Tracker{b: b}
}

// Charge reserves rows/bytes for newly materialized tuples and
// returns a *Error if either limit would be exceeded. A refused charge
// is never applied — callers drop the tuple on error, so the counters
// track resources actually retained, which keeps Rows()/Bytes()
// within the caps even under concurrent workers racing past the
// limit, and a refusal never makes a concurrent charge that fits
// fail. Safe for concurrent use.
func (t *Tracker) Charge(rows, bytes int64) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	r := t.rows.Load() + rows
	by := t.bytes.Load() + bytes
	if t.b.MaxRows > 0 && r > t.b.MaxRows {
		t.mu.Unlock()
		return &Error{Limit: "rows", Max: t.b.MaxRows, Got: r, Spill: t.SpillState()}
	}
	if t.b.MaxBytes > 0 && by > t.b.MaxBytes {
		t.mu.Unlock()
		return &Error{Limit: "bytes", Max: t.b.MaxBytes, Got: by, Spill: t.SpillState()}
	}
	t.rows.Add(rows)
	t.bytes.Add(bytes)
	t.mu.Unlock()
	return nil
}

// Refund returns previously charged rows/bytes to the budget. Only
// spilling operators call it (resident accounting); the cumulative
// no-spill paths never refund, so their behavior is unchanged.
func (t *Tracker) Refund(rows, bytes int64) {
	if t == nil {
		return
	}
	t.rows.Add(-rows)
	t.bytes.Add(-bytes)
}

// SpillEnabled reports whether the budget allows spilling to disk.
func (t *Tracker) SpillEnabled() bool { return t != nil && t.b.SpillDir != "" }

// SpillDir returns the configured spill directory ("" when disabled).
func (t *Tracker) SpillDir() string {
	if t == nil {
		return ""
	}
	return t.b.SpillDir
}

// SpillState names the tracker's spill configuration for Error.Spill.
func (t *Tracker) SpillState() string {
	if t.SpillEnabled() {
		return SpillEnabled
	}
	return SpillDisabled
}

// ChargeSpill reserves bytes of spill-file capacity. It fails with a
// typed *Error (Limit "spill", Spill state SpillDiskCap) when the
// MaxSpillBytes cap would be exceeded; like Charge, a refused amount
// is never applied.
func (t *Tracker) ChargeSpill(bytes int64) error {
	if t == nil {
		return nil
	}
	for {
		cur := t.spill.Load()
		got := cur + bytes
		if t.b.MaxSpillBytes > 0 && got > t.b.MaxSpillBytes {
			return &Error{Limit: "spill", Max: t.b.MaxSpillBytes, Got: got, Spill: SpillDiskCap}
		}
		if t.spill.CompareAndSwap(cur, got) {
			break
		}
	}
	t.written.Add(bytes)
	return nil
}

// RefundSpill returns spill-file capacity as partition files are
// removed.
func (t *Tracker) RefundSpill(bytes int64) {
	if t == nil {
		return
	}
	t.spill.Add(-bytes)
}

// SpillBytes returns the bytes currently resident in spill files.
func (t *Tracker) SpillBytes() int64 {
	if t == nil {
		return 0
	}
	return t.spill.Load()
}

// AddSpillParts records n partition files created under this tracker.
func (t *Tracker) AddSpillParts(n int64) {
	if t == nil {
		return
	}
	t.parts.Add(n)
}

// SpillParts returns the partition files created under this tracker.
func (t *Tracker) SpillParts() int64 {
	if t == nil {
		return 0
	}
	return t.parts.Load()
}

// SpillWritten returns the cumulative bytes ever written to spill
// files under this tracker (never refunded, unlike SpillBytes).
func (t *Tracker) SpillWritten() int64 {
	if t == nil {
		return 0
	}
	return t.written.Load()
}

// RecursionLimit returns the effective spill recursion depth bound:
// the configured SpillRecursionDepth, DefaultSpillRecursionDepth when
// zero, and 0 (recursion disabled) when negative or for a nil tracker.
func (t *Tracker) RecursionLimit() int {
	if t == nil {
		return 0
	}
	switch {
	case t.b.SpillRecursionDepth < 0:
		return 0
	case t.b.SpillRecursionDepth == 0:
		return DefaultSpillRecursionDepth
	default:
		return t.b.SpillRecursionDepth
	}
}

// NotePartition records one spill partition's final byte count so
// EXPLAIN can report skew without re-reading the files. Safe for
// concurrent use.
func (t *Tracker) NotePartition(bytes int64) {
	if t == nil {
		return
	}
	t.partCount.Add(1)
	t.partSumBytes.Add(bytes)
	atomicMax(&t.partMaxBytes, bytes)
}

func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// PartitionStats returns the recorded partition count and the largest
// partition's byte count.
func (t *Tracker) PartitionStats() (count, maxBytes int64) {
	if t == nil {
		return 0, 0
	}
	return t.partCount.Load(), t.partMaxBytes.Load()
}

// PartitionSkew reports how unbalanced the recorded partitions are:
// the largest partition's share of the total bytes, scaled by the
// partition count (1.0 = perfectly uniform, n = everything in one of n
// partitions). Zero when nothing was recorded.
func (t *Tracker) PartitionSkew() float64 {
	if t == nil {
		return 0
	}
	n, max := t.PartitionStats()
	sum := t.partSumBytes.Load()
	if n == 0 || sum == 0 {
		return 0
	}
	return float64(max) * float64(n) / float64(sum)
}

// NoteRecursion records one re-partitioning event at the given depth
// (1 = first recursion level).
func (t *Tracker) NoteRecursion(depth int) {
	if t == nil {
		return
	}
	t.recursions.Add(1)
	atomicMax(&t.depthMax, int64(depth))
}

// SpillRecursions returns how many partitions were re-partitioned.
func (t *Tracker) SpillRecursions() int64 {
	if t == nil {
		return 0
	}
	return t.recursions.Load()
}

// SpillDepth returns the deepest recursion level reached (0 = no
// partition needed re-partitioning).
func (t *Tracker) SpillDepth() int64 {
	if t == nil {
		return 0
	}
	return t.depthMax.Load()
}

// Rows returns the total rows charged so far.
func (t *Tracker) Rows() int64 {
	if t == nil {
		return 0
	}
	return t.rows.Load()
}

// Bytes returns the total approximate bytes charged so far.
func (t *Tracker) Bytes() int64 {
	if t == nil {
		return 0
	}
	return t.bytes.Load()
}

// Limits returns the tracked budget (zero for a nil tracker).
func (t *Tracker) Limits() Budget {
	if t == nil {
		return Budget{}
	}
	return t.b
}

type ctxKey struct{}

// With attaches a tracker to the context. Operators below retrieve it
// with FromContext and charge their materializations against it.
func With(ctx context.Context, t *Tracker) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the context's tracker, or nil (unlimited).
func FromContext(ctx context.Context) *Tracker {
	t, _ := ctx.Value(ctxKey{}).(*Tracker)
	return t
}

// Flow meters one operator's output batches. Without spilling it
// charges cumulatively, exactly like calling Tracker.Charge directly.
// With spilling enabled the batches are transient — the consumer either
// retains them under its own sink charges or spills them — so each
// Charge replaces the previous batch's charge: at any moment one
// in-flight batch per operator is resident, not the whole stream. Not
// safe for concurrent use (one Flow per iterator).
type Flow struct {
	t          *Tracker
	rows, byts int64
}

// NewFlow returns a batch meter for the tracker (nil tracker → nil
// Flow, which accepts every charge).
func (t *Tracker) NewFlow() *Flow {
	if t == nil {
		return nil
	}
	return &Flow{t: t}
}

// Charge meters one output batch; see Flow.
func (f *Flow) Charge(rows, bytes int64) error {
	if f == nil {
		return nil
	}
	if !f.t.SpillEnabled() {
		return f.t.Charge(rows, bytes)
	}
	// Charge the difference in one step rather than refunding the old
	// batch first: a concurrent charger on the same tracker must never
	// take the old batch's room before the new one is in.
	if err := f.t.Charge(rows-f.rows, bytes-f.byts); err != nil {
		f.t.Refund(f.rows, f.byts)
		f.rows, f.byts = 0, 0
		return err
	}
	f.rows, f.byts = rows, bytes
	return nil
}

// Release refunds the in-flight batch (spill mode only; cumulative
// charges stick). Iterators call it on Close.
func (f *Flow) Release() {
	if f == nil || !f.t.SpillEnabled() {
		return
	}
	f.t.Refund(f.rows, f.byts)
	f.rows, f.byts = 0, 0
}
