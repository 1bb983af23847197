package csvio

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"clio/internal/datagen"
	"clio/internal/paperdb"
	"clio/internal/relation"
	"clio/internal/schema"
	"clio/internal/value"
)

// parseReference is value.Parse without its byte check: both strconv
// parsers run on every candidate string.
func parseReference(s string) value.Value {
	switch s {
	case "", "-", "NULL", "null":
		return value.Null
	}
	leadingZero := len(s) > 1 && s[0] == '0' && s[1] != '.' ||
		len(s) > 2 && s[0] == '-' && s[1] == '0' && s[2] != '.'
	if !leadingZero {
		if i, err := strconv.ParseInt(s, 10, 64); err == nil {
			return value.Int(i)
		}
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return value.Float(f)
		}
	}
	if s == "true" || s == "false" {
		return value.Bool(s == "true")
	}
	return value.String(s)
}

// loadDirReference is the loader LoadDir replaced: a fresh record per
// row, parseReference, a copying NewTuple, and kinds inferred from each
// column's first non-null value. It returns the relations by name with
// their inferred schema entries.
func loadDirReference(t *testing.T, dir string) (map[string]*relation.Relation, map[string]*schema.Relation) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	rels, schemas := map[string]*relation.Relation{}, map[string]*schema.Relation{}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".csv") {
			continue
		}
		name := strings.TrimSuffix(e.Name(), ".csv")
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		cr := csv.NewReader(f)
		cr.TrimLeadingSpace = true
		recs, err := cr.ReadAll()
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		attrs := make([]schema.Attribute, len(recs[0]))
		qualified := make([]string, len(recs[0]))
		for i, h := range recs[0] {
			attrs[i] = schema.Attribute{Name: strings.TrimSpace(h)}
			qualified[i] = name + "." + attrs[i].Name
		}
		s := relation.NewScheme(qualified...)
		rel := relation.New(name, s)
		for _, rec := range recs[1:] {
			vals := make([]value.Value, s.Arity())
			for i := range vals {
				if i < len(rec) {
					vals[i] = parseReference(strings.TrimSpace(rec[i]))
				}
			}
			tp := relation.NewTuple(s, vals...)
			for i := range attrs {
				if v := tp.At(i); attrs[i].Type == value.KindNull && !v.IsNull() {
					attrs[i].Type = v.Kind()
				}
			}
			rel.Add(tp)
		}
		rels[name], schemas[name] = rel, schema.NewRelation(name, attrs...)
	}
	return rels, schemas
}

// valueStorage returns the address range of a tuple's value slice.
func valueStorage(tp relation.Tuple) (lo, hi uintptr) {
	vals := reflect.ValueOf(tp).FieldByName("vals")
	if vals.Cap() == 0 {
		return 0, 0
	}
	lo = vals.Pointer()
	return lo, lo + uintptr(vals.Cap())*unsafe.Sizeof(value.Value{})
}

// LoadDir gives exactly what the reference loader gives: the same
// tuples cell by cell (kind, rendering and key), the same Fingerprint,
// scheme and inferred kinds; and no two tuples share value storage.
func TestLoadDirMatchesReferenceLoader(t *testing.T) {
	fixture := "id,code,amount,when,flag\n" +
		"002,-0,1e3,7:05,true\n" +
		"-02,inf,0x1p-2,555-0000001,TRUE\n" +
		"+5,-inf,1E-3,12 Maple St,false\n" +
		"0,NaN,.5,+Infinity,é\n" +
		"-,,-0.5, 42 ,null\n" +
		"\"1,5\",1_000,9223372036854775808,c000001,NULL\n" +
		"002,-0,1e3,7:05,true\n"
	instances := map[string]*relation.Instance{
		"paperdb": paperdb.Instance(),
		"wide":    datagen.WideInstance(3, 4, 150, 40, 5),
		"chain":   datagen.Chain(datagen.ChainSpec{Relations: 3, Rows: 90, KeySpace: 30, MatchProb: 0.8, Seed: 3}).Instance,
		"ecommerce": datagen.ECommerce(datagen.ECommerceSpec{Customers: 30, Orders: 70,
			LinesPerOrder: 3, Products: 20, ShipRate: 0.7, Seed: 2}),
	}
	dirs := map[string]string{}
	for name, in := range instances {
		dirs[name] = t.TempDir()
		if err := SaveDir(dirs[name], in); err != nil {
			t.Fatal(err)
		}
	}
	dirs["numeric-looking"] = t.TempDir()
	if err := os.WriteFile(filepath.Join(dirs["numeric-looking"], "Codes.csv"), []byte(fixture), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, dir := range dirs {
		got, err := LoadDir(dir)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantRels, wantSchemas := loadDirReference(t, dir)
		if len(got.Names()) != len(wantRels) {
			t.Fatalf("%s: loaded %v, reference has %d relations", name, got.Names(), len(wantRels))
		}
		type span struct{ lo, hi uintptr }
		var spans []span
		for _, rel := range got.Relations() {
			want := wantRels[rel.Name]
			if want == nil || !reflect.DeepEqual(rel.Scheme().Names(), want.Scheme().Names()) {
				t.Fatalf("%s: relation %s has scheme %v, reference %v", name, rel.Name, rel.Scheme().Names(), want)
			}
			if g, w := got.Schema.Relation(rel.Name), wantSchemas[rel.Name]; !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: schema entry %+v, reference %+v", name, g, w)
			}
			if rel.Len() != want.Len() || rel.Fingerprint() != want.Fingerprint() {
				t.Fatalf("%s: %s has %d tuples (fingerprint %x), reference %d (%x)",
					name, rel.Name, rel.Len(), rel.Fingerprint(), want.Len(), want.Fingerprint())
			}
			for i, tp := range rel.Tuples() {
				for c := 0; c < tp.Scheme().Arity(); c++ {
					g, w := tp.At(c), want.At(i).At(c)
					if g.Kind() != w.Kind() || g.String() != w.String() || g.Key() != w.Key() {
						t.Fatalf("%s: %s row %d col %d is %v (%v), reference %v (%v)", name, rel.Name, i, c, g, g.Kind(), w, w.Kind())
					}
				}
				if lo, hi := valueStorage(tp); hi > lo {
					spans = append(spans, span{lo, hi})
				}
			}
		}
		sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
		for i := 1; i < len(spans); i++ {
			if spans[i].lo < spans[i-1].hi {
				t.Fatalf("%s: two tuples share value storage", name)
			}
		}
	}
}
