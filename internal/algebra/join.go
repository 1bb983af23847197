package algebra

import (
	"context"

	"clio/internal/expr"
	"clio/internal/obs"
	"clio/internal/relation"
)

// Join-kernel counters. Per-tuple work is accumulated locally and
// published once per join so the hot loops never touch an atomic.
var (
	cJoinCalls      = obs.GetCounter("algebra.join.calls")
	cJoinHash       = obs.GetCounter("algebra.join.hash")
	cJoinNested     = obs.GetCounter("algebra.join.nested")
	cJoinProbes     = obs.GetCounter("algebra.join.probes")
	cJoinMatches    = obs.GetCounter("algebra.join.matches")
	cJoinOut        = obs.GetCounter("algebra.join.out_tuples")
	cJoinBuildLeft  = obs.GetCounter("algebra.join.build_left")
	cJoinBuildRight = obs.GetCounter("algebra.join.build_right")
)

// JoinRelations joins two materialized relations under the given kind
// and predicate, without a resource budget.
func JoinRelations(kind JoinKind, l, r *relation.Relation, on expr.Expr) *relation.Relation {
	out, err := JoinRelationsCtx(context.Background(), kind, l, r, on)
	if err != nil {
		// Unreachable: only budget charges and cancellation fail, and
		// the background context carries neither.
		panic(err)
	}
	return out
}

// JoinRelationsCtx materializes the join under the context's resource
// budget and cancellation: every output batch (matches and outer
// padding alike) is charged against the tracker, so a join that would
// materialize more than the budget allows stops early with a
// budget.Error instead of exhausting memory.
func JoinRelationsCtx(ctx context.Context, kind JoinKind, l, r *relation.Relation, on expr.Expr) (*relation.Relation, error) {
	ctx, span := openJoinSpan(ctx, kind, on)
	return Drain(newJoinKernel(ctx, opStats{span: span}, kind, l.Columns(), r.Columns(), on, BatchSize))
}

// SplitEquiConjuncts decomposes predicate p (viewed as a conjunction)
// into equality conjuncts usable for hashing — Col = Col with one side
// in each scheme — and a residual conjunction of everything else.
// The returned column lists are aligned: lCols[i] = rCols[i] is the
// i-th hash condition. residual is nil when nothing remains.
func SplitEquiConjuncts(p expr.Expr, ls, rs *relation.Scheme) (lCols, rCols []string, residual expr.Expr) {
	var rest []expr.Expr
	var walk func(e expr.Expr)
	walk = func(e expr.Expr) {
		if b, ok := e.(expr.Bin); ok {
			if b.Op == expr.OpAnd {
				walk(b.L)
				walk(b.R)
				return
			}
			if b.Op == expr.OpEq {
				lc, lok := b.L.(expr.Col)
				rc, rok := b.R.(expr.Col)
				if lok && rok {
					switch {
					case ls.Has(lc.Name) && rs.Has(rc.Name):
						lCols = append(lCols, lc.Name)
						rCols = append(rCols, rc.Name)
						return
					case ls.Has(rc.Name) && rs.Has(lc.Name):
						lCols = append(lCols, rc.Name)
						rCols = append(rCols, lc.Name)
						return
					}
				}
			}
		}
		rest = append(rest, e)
	}
	walk(p)
	if len(rest) > 0 {
		residual = expr.And(rest...)
	}
	return lCols, rCols, residual
}
