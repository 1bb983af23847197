package budget

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestNilTrackerIsUnlimited(t *testing.T) {
	var tr *Tracker
	if err := tr.Charge(1<<40, 1<<50); err != nil {
		t.Fatalf("nil tracker charged: %v", err)
	}
	if NewTracker(Budget{}) != nil {
		t.Error("unlimited budget should yield a nil tracker")
	}
}

func TestRowLimit(t *testing.T) {
	tr := NewTracker(Budget{MaxRows: 10})
	for i := 0; i < 10; i++ {
		if err := tr.Charge(1, 0); err != nil {
			t.Fatalf("charge %d within budget failed: %v", i, err)
		}
	}
	err := tr.Charge(1, 0)
	if err == nil {
		t.Fatal("11th row did not exceed MaxRows=10")
	}
	var be *Error
	if !errors.As(err, &be) || be.Limit != "rows" || be.Max != 10 {
		t.Fatalf("wrong error detail: %#v", err)
	}
	if !errors.Is(err, ErrExceeded) {
		t.Error("budget error does not match ErrExceeded")
	}
}

func TestByteLimit(t *testing.T) {
	tr := NewTracker(Budget{MaxBytes: 100})
	if err := tr.Charge(1, 60); err != nil {
		t.Fatal(err)
	}
	err := tr.Charge(1, 60)
	var be *Error
	if !errors.As(err, &be) || be.Limit != "bytes" {
		t.Fatalf("want bytes violation, got %v", err)
	}
}

func TestContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if FromContext(ctx) != nil {
		t.Fatal("empty context has a tracker")
	}
	tr := NewTracker(Budget{MaxRows: 5})
	ctx = With(ctx, tr)
	if FromContext(ctx) != tr {
		t.Fatal("tracker did not round-trip through context")
	}
}

// Concurrent charges must be race-free and the limit must trip within
// one charge of the cap regardless of interleaving.
func TestConcurrentCharges(t *testing.T) {
	const workers, per = 8, 1000
	tr := NewTracker(Budget{MaxRows: workers * per / 2})
	var wg sync.WaitGroup
	var tripped sync.Once
	errc := make(chan error, 1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := tr.Charge(1, 8); err != nil {
					tripped.Do(func() { errc <- err })
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrExceeded) {
			t.Fatalf("unexpected error: %v", err)
		}
	default:
		t.Fatal("no worker hit the shared budget")
	}
}

// A refused charge is never visible to other chargers: while other
// goroutines loop on charges the budget must refuse, every concurrent
// charge that fits on its own succeeds.
func TestBudgetRefusedChargeNeverFailsAFittingCharge(t *testing.T) {
	tr := NewTracker(Budget{MaxBytes: 48 << 10, MaxSpillBytes: 48 << 10})
	if err := tr.Charge(0, 44_000); err != nil {
		t.Fatal(err)
	}
	if err := tr.ChargeSpill(44_000); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var refusers sync.WaitGroup
	refuse := func(charge func() bool) {
		defer refusers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if charge() {
				t.Error("a charge over the cap was taken")
				return
			}
		}
	}
	refusers.Add(3)
	// The Grace join's prefetch worker asks for headroom it cannot get.
	go refuse(func() bool { return tr.ChargeHeadroom(0, 4096, 0, 6144) })
	go refuse(func() bool { return tr.Charge(0, 8192) == nil })
	go refuse(func() bool { return tr.ChargeSpill(8192) == nil })

	// Two chargers together still fit: 44,000 + 2×2,048 ≤ 49,152.
	var chargers sync.WaitGroup
	var failed atomic.Int64
	var first atomic.Value
	for g := 0; g < 2; g++ {
		chargers.Add(1)
		go func() {
			defer chargers.Done()
			for i := 0; i < 5000; i++ {
				if err := tr.Charge(0, 2048); err != nil {
					failed.Add(1)
					first.CompareAndSwap(nil, err.Error())
					continue
				}
				tr.Refund(0, 2048)
				if err := tr.ChargeSpill(2048); err != nil {
					failed.Add(1)
					first.CompareAndSwap(nil, err.Error())
					continue
				}
				tr.RefundSpill(2048)
			}
		}()
	}
	chargers.Wait()
	close(stop)
	refusers.Wait()
	if n := failed.Load(); n > 0 {
		t.Fatalf("%d charges that fit failed beside refused ones; first: %v", n, first.Load())
	}
	if tr.Bytes() != 44_000 || tr.SpillBytes() != 44_000 {
		t.Fatalf("charged %d bytes and %d spill bytes after the run, want 44000 each", tr.Bytes(), tr.SpillBytes())
	}
}

// A Flow swaps one batch's charge for the next in one step: a
// concurrent headroom charger that fits only while the old batch is
// refunded never gets in, so the next batch, which fits in the old
// one's room, is never refused.
func TestBudgetFlowSwapNeverExposesTheOldBatch(t *testing.T) {
	tr := NewTracker(Budget{MaxBytes: 48 << 10, SpillDir: t.TempDir()})
	if err := tr.Charge(0, 36_000); err != nil {
		t.Fatal(err)
	}
	f := tr.NewFlow()
	if err := f.Charge(64, 8192); err != nil {
		t.Fatal(err)
	}
	// 36,000 + 8,192 + 6,000 exceeds the cap minus the 6,144 slack,
	// but 36,000 + 6,000 does not.
	stop := make(chan struct{})
	var taken atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if tr.ChargeHeadroom(0, 6000, 0, 6144) {
				taken.Add(1)
				tr.Refund(0, 6000)
			}
		}
	}()
	failed := 0
	for i := 0; i < 20000; i++ {
		if err := f.Charge(64, 8192); err != nil {
			failed++
		}
	}
	close(stop)
	<-done
	if n := taken.Load(); n > 0 || failed > 0 {
		t.Fatalf("the headroom charger got in %d times and %d same-size batches were refused", n, failed)
	}
	f.Release()
	if tr.Bytes() != 36_000 {
		t.Fatalf("charged %d bytes after Release, want 36000", tr.Bytes())
	}
}
