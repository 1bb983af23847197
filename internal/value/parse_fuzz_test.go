package value

import (
	"strconv"
	"testing"
)

// parseStrconv is Parse as it was before the mayBeNumber byte check:
// every string that is not a null marker or a leading-zero identifier
// goes through both strconv parsers. It is the reference FuzzParse
// compares against.
func parseStrconv(s string) Value {
	switch s {
	case "", "-", "NULL", "null":
		return Null
	}
	leadingZero := len(s) > 1 && s[0] == '0' && s[1] != '.' ||
		len(s) > 2 && s[0] == '-' && s[1] == '0' && s[2] != '.'
	if !leadingZero {
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

// FuzzParse checks that the byte check in front of strconv never
// changes a parse: for every input, Parse and the strconv-only
// reference agree on kind, equality, rendering and key.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"", "-", "NULL", "null", "002", "-0", "-0.5", ".5", "+5", "+",
		"1e3", "1E-3", "Inf", "-inf", "+Infinity", "infinite", "NaN",
		"0x1p-2", "1_000", "9223372036854775808", "c000001",
		"555-0000001", "7:05", "12 Maple St", "true", "TRUE", "é",
		"+0x1p-2", "+0x1_0p-2", "-0x1.8P+3", "2.5e+3", "1e5-", "1.2.3", "12abc", "4 ",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, want := Parse(s), parseStrconv(s)
		if got.Kind() != want.Kind() || !got.Equal(want) ||
			got.String() != want.String() || got.Key() != want.Key() {
			t.Fatalf("Parse(%q) = %v (%v, key %q), strconv-only parse gives %v (%v, key %q)",
				s, got, got.Kind(), got.Key(), want, want.Kind(), want.Key())
		}
	})
}
