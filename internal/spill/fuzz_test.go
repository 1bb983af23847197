package spill

import (
	"math"
	"testing"

	"clio/internal/relation"
	"clio/internal/value"
)

// identical reports whether a and b are the same value bit for bit:
// same kind and same datum, so -0 differs from +0 and a NaN keeps its
// payload (Equal deliberately treats both pairs as equal).
func identical(a, b value.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case value.KindString:
		return a.Str() == b.Str()
	case value.KindInt:
		return a.IntVal() == b.IntVal()
	case value.KindFloat:
		return math.Float64bits(a.FloatVal()) == math.Float64bits(b.FloatVal())
	case value.KindBool:
		return a.BoolVal() == b.BoolVal()
	}
	return true
}

// FuzzDecodeTuple checks the spill payload codec. On arbitrary bytes
// DecodeTuple never panics, and a payload that decodes re-encodes to
// one that decodes to an Equal tuple with the same Key. A tuple built
// from the fuzzed string, int, float, bool and null choices round-trips
// exactly.
func FuzzDecodeTuple(f *testing.F) {
	s := testScheme()
	seeds := []relation.Tuple{
		relation.NewTuple(s, value.Int(-3), value.String("apayload"), value.Float(-1), value.Bool(true), value.Null),
		relation.NewTuple(s, value.Int(1<<62), value.String("héllo\x00world"), value.Float(math.Copysign(0, -1)), value.Bool(false), value.Int(-1<<62)),
		relation.NewTuple(s, value.Null, value.Null, value.Float(math.NaN()), value.Null, value.Null),
	}
	for _, u := range seeds {
		good := AppendTuple(nil, u)
		f.Add(good, "", int64(0), 0.0, false, uint8(0))
		f.Add(good[:len(good)-2], "x", int64(-1), math.Inf(1), true, uint8(0x1f))
		f.Add(append(append([]byte{}, good...), 'n'), "héllo", int64(1<<62), math.Copysign(0, -1), false, uint8(0x0a))
	}
	f.Add([]byte{}, "\x00", int64(-1<<63), math.NaN(), true, uint8(0x15))
	f.Add([]byte{'s', 0xff, 0xff, 0xff, 0xff, 0x0f}, "", int64(7), 0.5, false, uint8(0))
	f.Fuzz(func(t *testing.T, payload []byte, str string, i int64, fl float64, b bool, nulls uint8) {
		if u, err := DecodeTuple(payload, s); err == nil {
			again, err := DecodeTuple(AppendTuple(nil, u), s)
			if err != nil {
				t.Fatalf("re-encoded %v does not decode: %v", u, err)
			}
			if !again.Equal(u) || again.Key() != u.Key() {
				t.Fatalf("re-encoded %v decodes to %v", u, again)
			}
		}
		vals := []value.Value{value.Int(i), value.String(str), value.Float(fl), value.Bool(b), value.Null}
		for k := range vals {
			if nulls&(1<<k) != 0 {
				vals[k] = value.Null
			}
		}
		want := relation.NewTuple(s, vals...)
		got, err := DecodeTuple(AppendTuple(nil, want), s)
		if err != nil {
			t.Fatalf("%v does not round-trip: %v", want, err)
		}
		for k := range vals {
			if !identical(got.At(k), want.At(k)) {
				t.Fatalf("value %d: %v round-trips to %v", k, want.At(k), got.At(k))
			}
		}
		if got.Key() != want.Key() {
			t.Fatalf("%v round-trips with key %q, want %q", want, got.Key(), want.Key())
		}
	})
}
