package discovery

import (
	"math"
	"slices"
	"testing"

	"clio/internal/value"
)

// Values share an id exactly when they share a Key. That includes the
// numbers where Equal and Key part ways: Int(2^53) and Int(2^53+1)
// share a Hash64 and are not Equal, yet share a Key, so they share an
// id; and strings that share no Key never share an id.
func TestInternerFollowsKey(t *testing.T) {
	vals := []value.Value{
		value.Int(2), value.Float(2), value.String("2"), value.String("002"),
		value.Float(0), value.Float(math.Copysign(0, -1)), value.Int(0),
		value.Float(math.NaN()), value.Float(-math.NaN()), value.Float(math.Inf(-1)),
		value.Int(1 << 53), value.Int(1<<53 + 1), value.Float(1 << 53),
		value.Bool(true), value.Bool(false), value.String("true"),
		value.Int(-7), value.Float(-7), value.String("a"), value.String("b"), value.String(""),
	}
	big, bigger := value.Int(1<<53), value.Int(1<<53+1)
	if big.Equal(bigger) || big.Hash64() != bigger.Hash64() {
		t.Fatal("precondition: 2^53 and 2^53+1 should share a hash and differ under Equal")
	}
	it := newInterner()
	ids := make([]int32, len(vals))
	for i, v := range vals {
		ids[i] = it.id(v)
	}
	for i, v := range vals {
		if again := it.id(v); again != ids[i] {
			t.Errorf("%v (%v) re-interned as %d, first %d", v, v.Kind(), again, ids[i])
		}
		for j, w := range vals {
			if sameID, sameKey := ids[i] == ids[j], v.Key() == w.Key(); sameID != sameKey {
				t.Errorf("%v (%v) and %v (%v): same id %v, same Key %v", v, v.Kind(), w, w.Kind(), sameID, sameKey)
			}
		}
	}
	if top := slices.Max(ids); top != it.n-1 {
		t.Errorf("ids are not dense: max %d after %d distinct values", top, it.n)
	}
}
