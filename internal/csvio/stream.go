package csvio

// Streaming CSV ingest. Stream parses a CSV incrementally and yields
// tuples in bounded batches, satisfying the algebra.Iterator shape
// (Scheme/Name/Next/Close) structurally — csvio stays below algebra in
// the import graph, and a CSV source can participate in an iterator
// pipeline without the whole file being materialized first.
// ReadRelation is a thin drain over a Stream, so the two paths cannot
// diverge on parsing or kind-inference semantics.

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"clio/internal/fault"
	"clio/internal/relation"
	"clio/internal/schema"
	"clio/internal/value"
)

// streamBatch bounds the tuples returned per Next call (matches the
// algebra layer's batch size).
const streamBatch = 64

// Stream reads one CSV relation incrementally. The scheme is available
// as soon as the header parses; column kinds are inferred from the
// first non-null value seen per column as batches drain, so
// SchemaRelation is exact only once Next has returned a nil batch.
type Stream struct {
	name  string
	s     *relation.Scheme
	cr    *csv.Reader
	attrs []schema.Attribute
	rows  int64
	done  bool
	buf   []relation.Tuple
}

// OpenStream parses the header of r and returns the tuple stream. The
// header row supplies unqualified attribute names; the scheme qualifies
// them with the relation name.
func OpenStream(name string, r io.Reader) (*Stream, error) {
	if err := fault.Inject("csvio.read"); err != nil {
		return nil, fmt.Errorf("csvio: reading %s: %w", name, err)
	}
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	// Each record's field strings are freshly allocated even when the
	// record slice is reused, so tuples may keep them.
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("csvio: reading header of %s: %w", name, err)
	}
	attrs := make([]schema.Attribute, len(header))
	qualified := make([]string, len(header))
	seen := map[string]bool{}
	for i, h := range header {
		h = strings.TrimSpace(h)
		if h == "" {
			return nil, fmt.Errorf("csvio: empty column name in %s", name)
		}
		if seen[h] {
			return nil, fmt.Errorf("csvio: duplicate column %q in %s", h, name)
		}
		seen[h] = true
		attrs[i] = schema.Attribute{Name: h}
		qualified[i] = name + "." + h
	}
	return &Stream{
		name:  name,
		s:     relation.NewScheme(qualified...),
		cr:    cr,
		attrs: attrs,
	}, nil
}

// Scheme returns the qualified scheme parsed from the header.
func (st *Stream) Scheme() *relation.Scheme { return st.s }

// Name returns the relation name.
func (st *Stream) Name() string { return st.name }

// Rows returns the tuples yielded so far.
func (st *Stream) Rows() int64 { return st.rows }

// Next returns the next batch of at most streamBatch tuples, or
// (nil, nil) at end of stream. The batch is valid until the following
// Next call.
func (st *Stream) Next() ([]relation.Tuple, error) {
	if st.done {
		return nil, nil
	}
	if err := fault.Inject("csvio.stream"); err != nil {
		return nil, fmt.Errorf("csvio: streaming %s: %w", st.name, err)
	}
	st.buf = st.buf[:0]
	for len(st.buf) < streamBatch {
		rec, err := st.cr.Read()
		if err == io.EOF {
			st.done = true
			break
		}
		if err != nil {
			return nil, fmt.Errorf("csvio: reading %s: %w", st.name, err)
		}
		vals := make([]value.Value, st.s.Arity())
		for i := range vals {
			if i < len(rec) {
				vals[i] = value.Parse(strings.TrimSpace(rec[i]))
			}
			if st.attrs[i].Type == value.KindNull && !vals[i].IsNull() {
				st.attrs[i].Type = vals[i].Kind()
			}
		}
		// vals is fresh per row and never written again, so the tuple
		// takes it over instead of copying it.
		st.buf = append(st.buf, relation.BorrowTuple(st.s, vals))
		st.rows++
	}
	if len(st.buf) == 0 {
		return nil, nil
	}
	return st.buf, nil
}

// Close releases the stream. The underlying reader is the caller's to
// close.
func (st *Stream) Close() { st.done = true }

// SchemaRelation returns the relation's schema entry with the column
// kinds inferred so far (the first non-null value per column; exact
// once the stream has drained).
func (st *Stream) SchemaRelation() *schema.Relation {
	return schema.NewRelation(st.name, st.attrs...)
}
