package core_test

import (
	"bytes"
	"testing"

	"clio/internal/core"
	"clio/internal/paperdb"
)

// FuzzUnmarshalMapping checks the mapping decoder on arbitrary
// documents: nothing panics through UnmarshalMapping, Validate and
// Evaluate on the paper instance, and every document that decodes
// re-encodes to one that decodes back to the same encoding.
func FuzzUnmarshalMapping(f *testing.F) {
	for _, m := range []*core.Mapping{
		paperdb.Section2Mapping(), paperdb.Example315Mapping(),
		paperdb.Figure6G(), paperdb.FamilyIncomeMapping(),
	} {
		data, err := m.MarshalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name":"m","target":{"name":"T","attrs":["a","a"]},"nodes":[{"name":"Children","base":"Children"}],"edges":[],"correspondences":[]}`))
	in := paperdb.Instance()
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := core.UnmarshalMapping(data)
		if err != nil {
			return
		}
		enc, err := m.MarshalJSON()
		if err != nil {
			t.Fatalf("re-encoding a decoded mapping: %v", err)
		}
		m2, err := core.UnmarshalMapping(enc)
		if err != nil {
			t.Fatalf("decoding the re-encoded mapping: %v\n%s", err, enc)
		}
		if enc2, err := m2.MarshalJSON(); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("encode∘decode is not the identity (err %v):\n%s\n---\n%s", err, enc, enc2)
		}
		// D(G) is exponential in the node count; keep inputs tractable.
		if m.Graph.NodeCount() > 6 || m.Validate(in) != nil {
			return
		}
		_, _ = m.Evaluate(in)
	})
}
