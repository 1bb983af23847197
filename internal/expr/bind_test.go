package expr

import (
	"reflect"
	"testing"

	"clio/internal/relation"
	"clio/internal/value"
)

// A bound expression evaluates exactly like the unbound one: by
// position on tuples of the bound scheme, by name on tuples of any
// other scheme, and as null for a column the scheme lacks.
func TestBindMatchesUnbound(t *testing.T) {
	exprs := []string{
		"C.age",                              // Col
		"42",                                 // Lit
		"C.age + P.salary",                   // Bin arithmetic
		"C.age * 2 - P.ID / 3",               // nested arithmetic
		"C.name || C.ID",                     // Bin concat
		"C.age < 7 AND C.name = 'Maya'",      // Bin logic
		"C.age > 7 OR P.ID IS NULL",          // Bin logic with IsNull
		"NOT (C.age = P.ID)",                 // Not
		"C.name IS NOT NULL",                 // IsNull
		"concat(C.name, P.ID)",               // Call
		"coalesce(P.salary, C.age, 0)",       // Call, variadic
		"C.age IN (1, 6, P.ID)",              // In
		"C.age NOT IN (5, 7)",                // In, negated
		"C.age BETWEEN 1 AND P.ID",           // Between
		"P.salary NOT BETWEEN C.age AND 100", // Between, negated
		"C.name LIKE 'M%'",                   // Like
		"C.name NOT LIKE '_a%'",              // Like, negated
		"X.missing IS NULL",                  // column missing from the scheme
		"X.missing + C.age",                  // missing column in arithmetic
		"coalesce(X.missing, C.name)",        // missing column in a call
	}
	other := relation.NewScheme("P.salary", "C.name", "X.missing", "C.age")
	tuples := []relation.Tuple{
		tup("002", "6", "Maya", "101", "50000"),
		tup("-", "6", "-", "-", "70000"),
		tup("003", "-", "Anna", "9", "-"),
		relation.NewTuple(other, value.Int(1), value.String("Mia"), value.Int(5), value.Int(3)),
		relation.NewTuple(other, value.Null, value.Null, value.Null, value.Int(8)),
	}
	for _, src := range exprs {
		e := MustParse(src)
		b := Bind(e, testScheme)
		if b.String() != e.String() {
			t.Errorf("%s: bound renders %q, unbound %q", src, b.String(), e.String())
		}
		if !reflect.DeepEqual(b.Columns(nil), e.Columns(nil)) {
			t.Errorf("%s: bound columns %v, unbound %v", src, b.Columns(nil), e.Columns(nil))
		}
		for _, tp := range tuples {
			got, want := b.Eval(tp), e.Eval(tp)
			if got.Kind() != want.Kind() || !got.Equal(want) {
				t.Errorf("%s on %v: bound %v, unbound %v", src, tp, got, want)
			}
		}
	}
}

// Bind resolves a column present in the scheme to its position and
// leaves a missing one a plain by-name column.
func TestBindResolvesPresentColumnsOnly(t *testing.T) {
	if _, ok := Bind(Col{Name: "C.age"}, testScheme).(boundCol); !ok {
		t.Error("a column of the scheme was not bound")
	}
	if _, ok := Bind(Col{Name: "X.missing"}, testScheme).(Col); !ok {
		t.Error("a column missing from the scheme was bound")
	}
}
