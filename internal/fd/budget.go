package fd

import (
	"context"

	"clio/internal/budget"
)

// Budget caps the resources one D(G) computation may consume; it is
// threaded through a context with WithBudget and checked by all four
// full-disjunction algorithms and the underlying join operators. The
// limits are cumulative over every tuple the computation
// materializes (intermediates included), which is the quantity that
// actually bounds resident memory: D(G) is a full-disjunction
// instance whose size can blow up combinatorially (Definition 3.14),
// so a bounded service degrades gracefully with ErrBudgetExceeded
// instead of an OOM kill.
type Budget = budget.Budget

// BudgetError carries which limit ("rows", "bytes", or "spill") a
// computation exceeded, plus the spill configuration at abort time; it
// matches ErrBudgetExceeded under errors.Is.
type BudgetError = budget.Error

// ErrBudgetExceeded is the sentinel for any budget violation.
var ErrBudgetExceeded = budget.ErrExceeded

// The spill states a BudgetError reports (see budget.Spill*): whether
// the abort happened with spilling disabled, enabled-but-unspillable,
// or with the disk cap itself exceeded.
const (
	SpillDisabled           = budget.SpillDisabled
	SpillEnabled            = budget.SpillEnabled
	SpillDiskCap            = budget.SpillDiskCap
	SpillRecursionExhausted = budget.SpillRecursionExhausted
)

// WithBudget returns a context that enforces b on every D(G)
// computation (and join) run under it. A zero budget is unlimited
// and returns ctx unchanged. Each call creates a fresh tracker:
// attach one budget per logical computation (e.g. per request).
func WithBudget(ctx context.Context, b Budget) context.Context {
	return budget.With(ctx, budget.NewTracker(b))
}

// BudgetUsed reports the rows and bytes charged against the
// context's budget so far (zero without a budget).
func BudgetUsed(ctx context.Context) (rows, bytes int64) {
	tr := budget.FromContext(ctx)
	return tr.Rows(), tr.Bytes()
}
