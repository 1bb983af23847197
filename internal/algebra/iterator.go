package algebra

// This file defines the execution core's iterator contract: every plan
// node compiles to a pull-based Iterator over column-major
// relation.Batch values (see Open). Scan, Select, Project and Distinct
// stream (vec.go); Join and Cross are pipeline breakers that
// materialize their inputs as batches before emitting (vecjoin.go, and
// spilljoin.go under a spill budget). Budget accounting and
// context-cancellation checks are amortized to one per batch. Eval is a
// thin wrapper that drains the pipeline into a relation.

import (
	"context"
	"fmt"

	"clio/internal/obs"
	"clio/internal/relation"
)

// BatchSize is the target row count of a batch. Per-batch overheads
// (charges, cancellation checks, virtual calls) are amortized over
// typed-vector loops.
const BatchSize = 1024

// SpillBatchSize caps the rows per output batch of a join opened under
// a spill budget. There budget.Flow keeps only the in-flight output
// batch charged, so the batch size is what stays resident beside a
// loaded partition pair.
const SpillBatchSize = 64

// Iterator is a pull-based columnar stream over one operator's output.
// NextBatch returns the next non-empty batch, or (nil, nil) at end of
// stream; the returned batch (and any selection installed on it) is
// valid only until the following NextBatch call, and is read-only.
// Cancellation of the Open context and budget exhaustion surface as
// errors from NextBatch. Close releases the operator tree and ends its
// trace spans; it is idempotent.
type Iterator interface {
	Scheme() *relation.Scheme
	Name() string
	NextBatch() (*relation.Batch, error)
	Close()
}

// Open compiles the node to its pipeline against the instance. Budget
// accounting and cancellation are drawn from ctx. Every operator span
// opens before the operator's children, so they nest under it.
func Open(ctx context.Context, n Node, in *relation.Instance) (Iterator, error) {
	switch x := n.(type) {
	case Scan:
		b, err := in.AliasedColumns(x.Base, x.aliasOrBase())
		if err != nil {
			return nil, err
		}
		return newScanIter(ctx, b, x.aliasOrBase()), nil
	case Materialized:
		return newScanIter(ctx, x.Rel.Columns(), x.Rel.Name), nil
	case Join:
		return openJoin(ctx, x.Kind, x.L, x.R, x.On, in)
	case Cross:
		return openJoin(ctx, InnerJoin, x.L, x.R, nil, in)
	}
	var name string
	var child Node
	switch x := n.(type) {
	case Select:
		name, child = "op.select", x.Child
	case Project:
		name, child = "op.project", x.Child
	case Distinct:
		name, child = "op.distinct", x.Child
	default:
		return nil, fmt.Errorf("algebra: cannot execute plan node %T", n)
	}
	cctx, span := openOp(ctx, name)
	c, err := Open(cctx, child, in)
	if err != nil {
		span.End()
		return nil, err
	}
	op := opStats{span: span}
	switch x := n.(type) {
	case Select:
		return newSelectIter(c, x.Pred, op), nil
	case Project:
		return newProjectIter(c, x.Cols, x.Name, op), nil
	default:
		return newDistinctIter(c, op), nil
	}
}

// Collect opens the node's pipeline and drains it into a relation
// (tuple storage carved batch-wise from slabs).
func Collect(ctx context.Context, n Node, in *relation.Instance) (*relation.Relation, error) {
	it, err := Open(ctx, n, in)
	if err != nil {
		return nil, err
	}
	return Drain(it)
}

// Drain materializes the remainder of an iterator into a relation and
// closes it.
func Drain(it Iterator) (*relation.Relation, error) {
	defer it.Close()
	out := relation.New(it.Name(), it.Scheme())
	for {
		b, err := it.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		out.AppendBatch(b)
	}
}

// Streamed-row counters, published once per iterator on Close.
var (
	cIterRows    = obs.GetCounter("algebra.iter.rows")
	cIterBatches = obs.GetCounter("algebra.iter.batches")
)

// opStats instruments one operator: its trace span (so --trace span
// trees show the pipeline shape) plus rows/batches totals recorded as
// span attributes and folded into the package counters on close.
type opStats struct {
	span    *obs.Span
	rows    int64
	batches int64
	done    bool
}

// openOp starts an operator span nested under the span carried by
// ctx. When ctx carries no span — every background Eval call — no
// span is started, so iterator pipelines never create trace roots of
// their own.
func openOp(ctx context.Context, name string) (context.Context, *obs.Span) {
	if obs.CurrentSpan(ctx) == nil {
		return ctx, nil
	}
	return obs.StartSpan(ctx, name)
}

// observe counts one emitted batch of n rows.
func (o *opStats) observe(n int) {
	o.rows += int64(n)
	o.batches++
}

// close publishes the totals and ends the span, once; it reports
// whether this call was the one that closed.
func (o *opStats) close() bool {
	if o.done {
		return false
	}
	o.done = true
	cIterRows.Add(o.rows)
	cIterBatches.Add(o.batches)
	o.span.SetInt("rows", o.rows)
	o.span.SetInt("batches", o.batches)
	o.span.End()
	return true
}
