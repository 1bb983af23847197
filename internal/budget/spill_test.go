package budget

import (
	"errors"
	"testing"
)

// Without a spill directory a Flow must charge cumulatively — exactly
// like calling Charge directly — so pre-spill accounting semantics are
// untouched.
func TestBudgetFlowCumulativeWithoutSpill(t *testing.T) {
	tr := NewTracker(Budget{MaxRows: 10})
	f := tr.NewFlow()
	for i := 0; i < 5; i++ {
		if err := f.Charge(2, 100); err != nil {
			t.Fatalf("charge %d: %v", i, err)
		}
	}
	if tr.Rows() != 10 {
		t.Fatalf("cumulative rows = %d, want 10", tr.Rows())
	}
	if err := f.Charge(1, 0); err == nil {
		t.Fatal("11th cumulative row accepted")
	}
	f.Release() // must be a no-op in cumulative mode
	if tr.Rows() != 10 {
		t.Fatalf("Release refunded cumulative charges: rows = %d", tr.Rows())
	}
}

// With a spill directory the Flow holds one in-flight batch: each
// charge refunds the previous batch, and Release refunds the last.
func TestBudgetFlowResidentWithSpill(t *testing.T) {
	tr := NewTracker(Budget{MaxRows: 3, SpillDir: t.TempDir()})
	f := tr.NewFlow()
	for i := 0; i < 10; i++ {
		if err := f.Charge(3, 50); err != nil {
			t.Fatalf("batch %d refused: %v", i, err)
		}
		if tr.Rows() != 3 {
			t.Fatalf("batch %d: resident rows = %d, want 3", i, tr.Rows())
		}
	}
	if err := f.Charge(4, 50); err == nil {
		t.Fatal("oversized batch accepted")
	}
	// The failed charge rolled back, and the previous batch was already
	// refunded: nothing is resident.
	if tr.Rows() != 0 {
		t.Fatalf("rows after failed batch = %d, want 0", tr.Rows())
	}
	if err := f.Charge(2, 10); err != nil {
		t.Fatalf("flow unusable after failed batch: %v", err)
	}
	f.Release()
	if tr.Rows() != 0 || tr.Bytes() != 0 {
		t.Fatalf("Release left %d rows / %d bytes", tr.Rows(), tr.Bytes())
	}
}

// A nil Flow (nil tracker) must accept everything.
func TestBudgetFlowNilAcceptsAll(t *testing.T) {
	var tr *Tracker
	f := tr.NewFlow()
	if err := f.Charge(1<<40, 1<<40); err != nil {
		t.Fatalf("nil flow refused: %v", err)
	}
	f.Release()
}

// Refund must return capacity so a spilling operator can keep working
// under a resident cap.
func TestBudgetRefundReturnsCapacity(t *testing.T) {
	tr := NewTracker(Budget{MaxBytes: 100, SpillDir: t.TempDir()})
	if err := tr.Charge(1, 100); err != nil {
		t.Fatal(err)
	}
	if err := tr.Charge(1, 1); err == nil {
		t.Fatal("over-cap charge accepted")
	}
	tr.Refund(1, 100)
	if err := tr.Charge(1, 100); err != nil {
		t.Fatalf("charge after refund refused: %v", err)
	}
}

// Charge errors must name the tracker's spill state so the 413
// envelope can tell "disabled" from "enabled".
func TestBudgetErrorCarriesSpillState(t *testing.T) {
	var be *Error
	err := NewTracker(Budget{MaxRows: 1}).Charge(2, 0)
	if !errors.As(err, &be) || be.Spill != SpillDisabled {
		t.Fatalf("no-spill error state = %+v, want %q", be, SpillDisabled)
	}
	err = NewTracker(Budget{MaxRows: 1, SpillDir: t.TempDir()}).Charge(2, 0)
	if !errors.As(err, &be) || be.Spill != SpillEnabled {
		t.Fatalf("spill-enabled error state = %+v, want %q", be, SpillEnabled)
	}
}

// ChargeSpill enforces the disk cap with rollback and tracks the
// monotone written counter only on success.
func TestBudgetChargeSpillDiskCap(t *testing.T) {
	tr := NewTracker(Budget{MaxBytes: 1, SpillDir: t.TempDir(), MaxSpillBytes: 100})
	if err := tr.ChargeSpill(60); err != nil {
		t.Fatal(err)
	}
	err := tr.ChargeSpill(41)
	var be *Error
	if !errors.As(err, &be) || be.Limit != "spill" || be.Spill != SpillDiskCap {
		t.Fatalf("disk cap error = %v, want limit spill, state %q", err, SpillDiskCap)
	}
	if tr.SpillBytes() != 60 {
		t.Fatalf("failed spill charge not rolled back: %d", tr.SpillBytes())
	}
	if tr.SpillWritten() != 60 {
		t.Fatalf("written counter = %d, want 60 (failures excluded)", tr.SpillWritten())
	}
	tr.RefundSpill(60)
	if tr.SpillBytes() != 0 || tr.SpillWritten() != 60 {
		t.Fatalf("refund changed the wrong counter: resident %d, written %d", tr.SpillBytes(), tr.SpillWritten())
	}
}

// RecursionLimit encodes "negative = disabled, zero = default" so the
// serve flag's 0 → -1 mapping and the tracker agree on what "off"
// means.
func TestBudgetRecursionLimitEncoding(t *testing.T) {
	var nilTr *Tracker
	if got := nilTr.RecursionLimit(); got != 0 {
		t.Fatalf("nil tracker limit = %d, want 0", got)
	}
	cases := []struct {
		depth int
		want  int
	}{
		{-1, 0},
		{-7, 0},
		{0, DefaultSpillRecursionDepth},
		{1, 1},
		{5, 5},
	}
	for _, c := range cases {
		tr := NewTracker(Budget{MaxRows: 1, SpillRecursionDepth: c.depth})
		if got := tr.RecursionLimit(); got != c.want {
			t.Fatalf("RecursionLimit(depth=%d) = %d, want %d", c.depth, got, c.want)
		}
	}
}

// Partition statistics: count, max bytes, and the skew ratio
// max*n/sum (1.0 uniform, n fully concentrated).
func TestBudgetPartitionStats(t *testing.T) {
	tr := NewTracker(Budget{MaxRows: 1 << 20})
	if n, _ := tr.PartitionStats(); n != 0 || tr.PartitionSkew() != 0 {
		t.Fatal("fresh tracker has partition stats")
	}
	tr.NotePartition(100)
	tr.NotePartition(300)
	tr.NotePartition(200)
	n, maxB := tr.PartitionStats()
	if n != 3 || maxB != 300 {
		t.Fatalf("stats = (%d, %d), want (3, 300)", n, maxB)
	}
	// 300 * 3 / 600 = 1.5
	if got := tr.PartitionSkew(); got != 1.5 {
		t.Fatalf("skew = %v, want 1.5", got)
	}
	// Recursion counters ride on the same tracker.
	tr.NoteRecursion(1)
	tr.NoteRecursion(3)
	tr.NoteRecursion(2)
	if tr.SpillRecursions() != 3 || tr.SpillDepth() != 3 {
		t.Fatalf("recursions=%d depth=%d, want 3 and 3", tr.SpillRecursions(), tr.SpillDepth())
	}
}
