// Package value implements the typed value model used throughout the
// mapping engine: strings, integers, floats, booleans, and SQL-style
// nulls, with three-valued comparison semantics and a stable hash/key
// encoding usable for hash joins and indexes.
//
// The paper's definitions (strong predicates, subsumption, minimum
// union) all hinge on careful null handling; this package centralizes
// those rules so the rest of the system cannot get them subtly wrong.
package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind identifies the runtime type of a Value.
type Kind uint8

// The supported value kinds. KindNull is the SQL null marker: it has no
// associated datum and compares as unknown to everything, including
// itself.
const (
	KindNull Kind = iota
	KindString
	KindInt
	KindFloat
	KindBool
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is an immutable typed datum. The zero Value is null.
type Value struct {
	kind Kind
	s    string
	i    int64
	f    float64
	b    bool
}

// Null is the SQL null value.
var Null = Value{}

// String constructs a string value.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Int constructs an integer value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float constructs a floating-point value.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// Bool constructs a boolean value.
func Bool(b bool) Value { return Value{kind: KindBool, b: b} }

// Kind reports the kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is the SQL null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Str returns the string datum; it panics if v is not a string.
func (v Value) Str() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("value: Str() on %s value", v.kind))
	}
	return v.s
}

// IntVal returns the integer datum; it panics if v is not an int.
func (v Value) IntVal() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("value: IntVal() on %s value", v.kind))
	}
	return v.i
}

// FloatVal returns the float datum; it panics if v is not a float.
func (v Value) FloatVal() float64 {
	if v.kind != KindFloat {
		panic(fmt.Sprintf("value: FloatVal() on %s value", v.kind))
	}
	return v.f
}

// BoolVal returns the boolean datum; it panics if v is not a bool.
func (v Value) BoolVal() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("value: BoolVal() on %s value", v.kind))
	}
	return v.b
}

// AsFloat converts a numeric value to float64. ok is false for
// non-numeric or null values.
func (v Value) AsFloat() (f float64, ok bool) {
	switch v.kind {
	case KindInt:
		return float64(v.i), true
	case KindFloat:
		return v.f, true
	default:
		return 0, false
	}
}

// numeric reports whether v is an int or float.
func (v Value) numeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Equal reports whether two values are identical — same kind, same
// datum. Unlike SQL equality this is a real equivalence relation:
// Null.Equal(Null) is true. Use Compare for SQL semantics.
func (v Value) Equal(w Value) bool {
	if v.kind != w.kind {
		// Cross-kind numeric equality: Int(2) equals Float(2.0).
		if v.numeric() && w.numeric() {
			a, _ := v.AsFloat()
			b, _ := w.AsFloat()
			return a == b
		}
		return false
	}
	switch v.kind {
	case KindNull:
		return true
	case KindString:
		return v.s == w.s
	case KindInt:
		return v.i == w.i
	case KindFloat:
		return v.f == w.f || (math.IsNaN(v.f) && math.IsNaN(w.f))
	case KindBool:
		return v.b == w.b
	}
	return false
}

// Tri is a three-valued logic truth value.
type Tri uint8

// The three truth values of SQL logic.
const (
	False Tri = iota
	True
	Unknown
)

// String returns "true", "false" or "unknown".
func (t Tri) String() string {
	switch t {
	case True:
		return "true"
	case False:
		return "false"
	default:
		return "unknown"
	}
}

// TriOf lifts a Go bool into Tri.
func TriOf(b bool) Tri {
	if b {
		return True
	}
	return False
}

// And returns the 3VL conjunction.
func (t Tri) And(u Tri) Tri {
	if t == False || u == False {
		return False
	}
	if t == Unknown || u == Unknown {
		return Unknown
	}
	return True
}

// Or returns the 3VL disjunction.
func (t Tri) Or(u Tri) Tri {
	if t == True || u == True {
		return True
	}
	if t == Unknown || u == Unknown {
		return Unknown
	}
	return False
}

// Not returns the 3VL negation.
func (t Tri) Not() Tri {
	switch t {
	case True:
		return False
	case False:
		return True
	default:
		return Unknown
	}
}

// Compare compares two values with SQL semantics: if either side is
// null the result is Unknown; otherwise cmp is -1, 0 or +1 and the
// returned Tri is True (meaning the comparison is defined). Comparing
// incomparable kinds (e.g. string vs bool) yields Unknown.
func Compare(v, w Value) (cmp int, defined Tri) {
	if v.IsNull() || w.IsNull() {
		return 0, Unknown
	}
	if v.numeric() && w.numeric() {
		a, _ := v.AsFloat()
		b, _ := w.AsFloat()
		switch {
		case a < b:
			return -1, True
		case a > b:
			return 1, True
		default:
			return 0, True
		}
	}
	if v.kind != w.kind {
		return 0, Unknown
	}
	switch v.kind {
	case KindString:
		return strings.Compare(v.s, w.s), True
	case KindBool:
		x, y := 0, 0
		if v.b {
			x = 1
		}
		if w.b {
			y = 1
		}
		switch {
		case x < y:
			return -1, True
		case x > y:
			return 1, True
		default:
			return 0, True
		}
	}
	return 0, Unknown
}

// Eq is SQL equality: Unknown if either side is null, else True/False.
func Eq(v, w Value) Tri {
	cmp, def := Compare(v, w)
	if def != True {
		return Unknown
	}
	return TriOf(cmp == 0)
}

// Less is SQL less-than.
func Less(v, w Value) Tri {
	cmp, def := Compare(v, w)
	if def != True {
		return Unknown
	}
	return TriOf(cmp < 0)
}

// Key returns a stable encoding of v usable as a hash-map key. Distinct
// values have distinct keys; Equal values (including cross-kind numeric
// equality) share a key. Every encoding is self-delimiting — string
// payloads are length-framed and the other kinds are fixed-width or
// terminated — so concatenating keys (as Tuple.Key does) cannot
// produce collisions by delimiter injection, whatever bytes the
// payloads contain.
func (v Value) Key() string {
	switch v.kind {
	case KindNull:
		return "n;"
	case KindString:
		return "s" + strconv.Itoa(len(v.s)) + ":" + v.s
	case KindInt:
		if v.i > -1_000_000 && v.i < 1_000_000 {
			// For |i| < 1e6 the 'g' shortest form of float64(i) is
			// exactly the decimal digits (larger magnitudes switch to
			// exponent notation), so the float formatter can be skipped.
			// Verified exhaustively over the whole range.
			return "f" + strconv.FormatInt(v.i, 10) + ";"
		}
		return "f" + strconv.FormatFloat(float64(v.i), 'g', -1, 64) + ";"
	case KindFloat:
		f := v.f
		if f == 0 {
			f = 0 // -0.0 equals +0.0: share one key
		}
		return "f" + strconv.FormatFloat(f, 'g', -1, 64) + ";"
	case KindBool:
		if v.b {
			return "bt"
		}
		return "bf"
	}
	return "?;"
}

// AppendKey appends v's canonical Key encoding to dst and returns the
// extended slice. It produces exactly the bytes of Key() without
// allocating intermediate strings, so batch kernels can build sort keys
// for thousands of rows into one shared buffer.
func (v Value) AppendKey(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, 'n', ';')
	case KindString:
		dst = append(dst, 's')
		dst = strconv.AppendInt(dst, int64(len(v.s)), 10)
		dst = append(dst, ':')
		return append(dst, v.s...)
	case KindInt:
		dst = append(dst, 'f')
		if v.i > -1_000_000 && v.i < 1_000_000 {
			// Same fast path as Key: the 'g' form of a small integral
			// float is its decimal digits.
			dst = strconv.AppendInt(dst, v.i, 10)
		} else {
			dst = strconv.AppendFloat(dst, float64(v.i), 'g', -1, 64)
		}
		return append(dst, ';')
	case KindFloat:
		f := v.f
		if f == 0 {
			f = 0 // -0.0 equals +0.0: share one key
		}
		dst = append(dst, 'f')
		if f == math.Trunc(f) && f > -1_000_000 && f < 1_000_000 {
			dst = strconv.AppendInt(dst, int64(f), 10)
		} else {
			dst = strconv.AppendFloat(dst, f, 'g', -1, 64)
		}
		return append(dst, ';')
	case KindBool:
		if v.b {
			return append(dst, 'b', 't')
		}
		return append(dst, 'b', 'f')
	}
	return append(dst, '?', ';')
}

// FNV-1a parameters for the canonical 64-bit value hash.
const (
	hashOffset64 uint64 = 14695981039346656037
	hashPrime64  uint64 = 1099511628211
)

// HashSeed returns the initial state for chaining MixHash64 over a
// sequence of values (the FNV-1a offset basis).
func HashSeed() uint64 { return hashOffset64 }

// MixBytes folds a byte string into an FNV-1a hash state, prefixed by
// its length so that adjacent strings in a chained hash cannot collide
// by moving bytes across the boundary.
func MixBytes(h uint64, s string) uint64 {
	h = MixUint64(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * hashPrime64
	}
	return h
}

// MixUint64 folds a fixed-width 64-bit word into an FNV-1a hash state.
func MixUint64(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (x & 0xff)) * hashPrime64
		x >>= 8
	}
	return h
}

// MixHash64 folds v's canonical encoding into an FNV-1a hash state: a
// kind tag byte followed by a length-framed (strings) or fixed-width
// (numerics, bools) payload. The framing mirrors Key(): hashing a
// sequence of values is unambiguous, and Equal values — including
// cross-kind numeric equality, negative zero, and NaN (which Equal
// treats as equal to itself) — mix identically. It allocates nothing.
func (v Value) MixHash64(h uint64) uint64 {
	switch v.kind {
	case KindNull:
		return MixNullHash(h)
	case KindString:
		return MixStringHash(h, v.s)
	case KindInt:
		return MixNumericHash(h, float64(v.i))
	case KindFloat:
		return MixNumericHash(h, v.f)
	case KindBool:
		return MixBoolHash(h, v.b)
	}
	return (h ^ '?') * hashPrime64
}

// The typed mixers below are the per-kind cases of MixHash64, exported
// so columnar kernels can hash typed column storage (int64/float64/
// string/bool vectors) in tight loops without materializing Values.
// Each reproduces MixHash64's bytes exactly for the matching kind.

// MixNullHash folds the null encoding into the hash state.
func MixNullHash(h uint64) uint64 { return (h ^ 'n') * hashPrime64 }

// MixStringHash folds a string datum into the hash state.
func MixStringHash(h uint64, s string) uint64 {
	return MixBytes((h^'s')*hashPrime64, s)
}

// MixNumericHash folds a numeric datum (int or float, already widened
// to float64 — the canonical numeric hash domain) into the hash state,
// normalizing -0.0 and NaN exactly like MixHash64.
func MixNumericHash(h uint64, f float64) uint64 {
	if f == 0 {
		f = 0 // normalize -0.0 to +0.0 (they compare Equal)
	}
	bits := math.Float64bits(f)
	if math.IsNaN(f) {
		bits = 0x7ff8000000000000 // canonical quiet NaN
	}
	return MixUint64((h^'f')*hashPrime64, bits)
}

// MixBoolHash folds a boolean datum into the hash state.
func MixBoolHash(h uint64, b bool) uint64 {
	if b {
		return (h ^ 't') * hashPrime64
	}
	return (h ^ 'u') * hashPrime64
}

// Hash64 returns the canonical 64-bit hash of v. Equal values share a
// hash; distinct values collide only with hash probability, so
// hash-keyed indexes confirm candidate equality with Equal.
func (v Value) Hash64() uint64 { return v.MixHash64(hashOffset64) }

// String renders the value for display. Null renders as "-" to match
// the paper's figures.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "-"
	case KindString:
		return v.s
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.b)
	}
	return "?"
}

// SQL renders the value as a SQL literal.
func (v Value) SQL() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindString:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	default:
		return v.String()
	}
}

// Parse converts a display string into a Value, guessing the kind:
// "-" and "" parse as null, then int, float, bool, and finally string.
func Parse(s string) Value {
	switch s {
	case "", "-", "NULL", "null":
		return Null
	}
	// Leading-zero digit strings ("002") stay strings: they are
	// identifiers, and numeric parsing would destroy the zeros.
	// "0" and "0.5" are still numbers.
	leadingZero := len(s) > 1 && s[0] == '0' && s[1] != '.' ||
		len(s) > 2 && s[0] == '-' && s[1] == '0' && s[2] != '.'
	if !leadingZero && mayBeNumber(s) {
		if i, err := strconv.ParseInt(s, 10, 64); err == nil {
			return Int(i)
		}
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return Float(f)
		}
	}
	if s == "true" || s == "false" {
		return Bool(s == "true")
	}
	return String(s)
}

// mayBeNumber is a byte check that rules out most non-numeric strings
// before strconv, whose failures each allocate an error and a copy of
// the input. After an optional sign, ParseInt and ParseFloat accept
// only strings that start with a digit, '.', or the first letter of
// inf, infinity or nan (in any case). A string that starts with a
// digit or '.' can then hold only digits, hex digits, '.', '_', 'x',
// 'p', and a sign right after an exponent marker (e or p).
func mayBeNumber(s string) bool {
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		s = s[1:]
	}
	if s == "" {
		return false
	}
	switch c := s[0]; {
	case c == 'i', c == 'I', c == 'n', c == 'N':
		return true
	case c != '.' && (c < '0' || c > '9'):
		return false
	}
	for i := 1; i < len(s); i++ {
		switch c, lower := s[i], s[i]|0x20; {
		case '0' <= c && c <= '9', 'a' <= lower && lower <= 'f',
			c == '.', c == '_', lower == 'x', lower == 'p':
		case (c == '+' || c == '-') && (s[i-1]|0x20 == 'e' || s[i-1]|0x20 == 'p'):
		default:
			return false
		}
	}
	return true
}
