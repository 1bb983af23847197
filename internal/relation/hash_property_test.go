package relation

import (
	"math"
	"math/rand"
	"testing"

	"clio/internal/value"
)

// adversarialValue draws from a pool built to stress hashed keying:
// nulls, tag and separator bytes inside strings, cross-kind numeric
// equals (Int 2 vs Float 2), NaN, and signed zero.
func adversarialValue(rng *rand.Rand) value.Value {
	switch rng.Intn(10) {
	case 0:
		return value.Null
	case 1:
		return value.String("")
	case 2:
		return value.String("a\x01\x00sb")
	case 3:
		return value.String("b\x01\x00sc")
	case 4:
		return value.String(string(rune('a' + rng.Intn(3))))
	case 5:
		return value.Int(int64(rng.Intn(3)))
	case 6:
		return value.Float(float64(rng.Intn(3)))
	case 7:
		return value.Float(math.NaN())
	case 8:
		return value.Float(math.Copysign(0, -1))
	default:
		return value.Bool(rng.Intn(2) == 0)
	}
}

// Differential property: the hash-keyed Distinct must agree — same
// survivors, same first-occurrence order — with a reference dedup
// over the canonical string encoding, on value mixes chosen to force
// hash-bucket collisions and cross-kind equality.
func TestDistinctMatchesStringKeyReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	s := NewScheme("a", "b", "c")
	for trial := 0; trial < 300; trial++ {
		r := New("R", s)
		n := rng.Intn(40)
		for i := 0; i < n; i++ {
			r.AddValues(adversarialValue(rng), adversarialValue(rng), adversarialValue(rng))
		}
		fast := r.Distinct()
		seen := map[string]bool{}
		ref := New("R", s)
		for _, tu := range r.Tuples() {
			k := tu.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
			ref.Add(tu)
		}
		if fast.Len() != ref.Len() {
			t.Fatalf("trial %d: Distinct kept %d tuples, string-key reference %d\ninput:\n%v",
				trial, fast.Len(), ref.Len(), r)
		}
		for i := 0; i < ref.Len(); i++ {
			if fast.At(i).Key() != ref.At(i).Key() {
				t.Fatalf("trial %d: survivor %d differs:\nfast %v\nref  %v",
					trial, i, fast.At(i), ref.At(i))
			}
		}
	}
}
