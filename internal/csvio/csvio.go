// Package csvio loads and saves relation instances as CSV files: one
// file per relation, first row the attribute names. Types are inferred
// per value with value.Parse ("-" and the empty string are null), so a
// directory of CSVs is all a user needs to start mapping.
package csvio

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"clio/internal/fault"
	"clio/internal/relation"
	"clio/internal/schema"
)

// ReadRelation parses one CSV stream into a relation with the given
// name. The header row supplies unqualified attribute names; the
// relation's scheme qualifies them with the relation name. It is a
// materializing drain over OpenStream — pipeline consumers that don't
// need the whole relation resident should use the Stream directly.
func ReadRelation(name string, r io.Reader) (*relation.Relation, *schema.Relation, error) {
	st, err := OpenStream(name, r)
	if err != nil {
		return nil, nil, err
	}
	defer st.Close()
	rel := relation.New(name, st.Scheme())
	for {
		batch, err := st.Next()
		if err != nil {
			return nil, nil, err
		}
		if batch == nil {
			break
		}
		for _, t := range batch {
			rel.Add(t)
		}
	}
	return rel, st.SchemaRelation(), nil
}

// LoadDir reads every *.csv file in dir into an instance. The relation
// name is the file base name without extension. Files load in sorted
// order for determinism.
func LoadDir(dir string) (*relation.Instance, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("csvio: %w", err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".csv") {
			files = append(files, e.Name())
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("csvio: no .csv files in %s", dir)
	}
	sch := schema.NewDatabase()
	in := relation.NewInstance(sch)
	for _, f := range files {
		name := strings.TrimSuffix(f, ".csv")
		fh, err := os.Open(filepath.Join(dir, f))
		if err != nil {
			return nil, fmt.Errorf("csvio: %w", err)
		}
		rel, srel, err := ReadRelation(name, fh)
		fh.Close()
		if err != nil {
			return nil, err
		}
		if err := sch.AddRelation(srel); err != nil {
			return nil, err
		}
		if err := in.Add(rel); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// WriteRelation writes a relation as CSV with unqualified headers.
func WriteRelation(w io.Writer, r *relation.Relation) error {
	if err := fault.Inject("csvio.write"); err != nil {
		return fmt.Errorf("csvio: writing %s: %w", r.Name, err)
	}
	cw := csv.NewWriter(w)
	header := make([]string, r.Scheme().Arity())
	for i, n := range r.Scheme().Names() {
		if ref, err := schema.ParseColumnRef(n); err == nil {
			header[i] = ref.Attr
		} else {
			header[i] = n
		}
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, t := range r.Tuples() {
		rec := make([]string, len(header))
		for i := range header {
			v := t.At(i)
			if v.IsNull() {
				rec[i] = ""
			} else {
				rec[i] = v.String()
			}
		}
		if len(rec) == 1 && rec[0] == "" {
			// csv.Writer writes a lone empty field as a blank line,
			// which readers skip; a quoted empty field keeps the row.
			cw.Flush()
			if err := cw.Error(); err != nil {
				return err
			}
			if _, err := io.WriteString(w, "\"\"\n"); err != nil {
				return err
			}
			continue
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// SaveDir writes every relation of the instance into dir as
// <name>.csv.
func SaveDir(dir string, in *relation.Instance) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("csvio: %w", err)
	}
	for _, name := range in.Names() {
		f, err := os.Create(filepath.Join(dir, name+".csv"))
		if err != nil {
			return fmt.Errorf("csvio: %w", err)
		}
		err = WriteRelation(f, in.Relation(name))
		cerr := f.Close()
		if err != nil {
			return err
		}
		if cerr != nil {
			return cerr
		}
	}
	return nil
}
