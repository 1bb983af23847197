package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"clio/internal/obs"
)

// TestExperimentsQuick runs every experiment in quick mode and checks
// each emits a well-formed markdown table.
func TestExperimentsQuick(t *testing.T) {
	*quick = true
	var b bytes.Buffer
	old := out
	out = &b
	defer func() { out = old }()
	for id, f := range map[string]func(){
		"E1": e1, "E2": e2, "E3": e3, "E4": e4,
		"E5": e5, "E6": e6, "E8": e8,
	} {
		b.Reset()
		f()
		s := b.String()
		if !strings.Contains(s, "## "+id) {
			t.Errorf("%s: header missing:\n%s", id, s)
		}
		if strings.Count(s, "\n|") < 3 {
			t.Errorf("%s: table too small:\n%s", id, s)
		}
	}
}

// TestMeasureQuantilesAndSlowestTrace: with instrumentation on (the
// -json path), every measurement reports the full quantile set and the
// trace ID of its slowest run, and that trace is retained.
func TestMeasureQuantilesAndSlowestTrace(t *testing.T) {
	obs.SetEnabled(true)
	buf := obs.NewTraceBuffer(16, nil)
	obs.SetExporter(buf)
	t.Cleanup(func() {
		obs.SetEnabled(false)
		obs.SetExporter(nil)
	})
	s := measure(func() { time.Sleep(time.Millisecond) })
	if s.P50 != s.Median || s.P95 < s.P50 || s.P99 < s.P95 {
		t.Errorf("quantiles out of order: %+v", s)
	}
	if s.SlowestTrace == "" {
		t.Fatalf("no slowest trace recorded: %+v", s)
	}
	tr := buf.Get(s.SlowestTrace)
	if tr == nil {
		t.Fatalf("slowest trace %s not retained", s.SlowestTrace)
	}
	if tr.Root.Name != "bench.run" {
		t.Errorf("retained root span = %s, want bench.run", tr.Root.Name)
	}
	// JSON surface: the quantile fields and trace must serialize.
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"p50_ns"`, `"p95_ns"`, `"p99_ns"`, `"slowest_trace"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("stats JSON missing %s: %s", want, data)
		}
	}
	// Untraced measurements (no -json) carry no trace ID.
	obs.SetEnabled(false)
	if s := measure(func() {}); s.SlowestTrace != "" {
		t.Errorf("untraced measure recorded a trace: %+v", s)
	}
}

func TestRatio(t *testing.T) {
	if got := ratio(10, 0); got != "∞" {
		t.Errorf("ratio with zero divisor = %q", got)
	}
	if got := ratio(20, 10); got != "2.0x" {
		t.Errorf("ratio = %q", got)
	}
}
