package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"clio/internal/csvio"
	"clio/internal/discovery"
	"clio/internal/value"
)

// smokeSizes keeps every workload small enough for a unit test.
var smokeSizes = sizes{buildN: 40, editN: 40}

// Mining the generated data at full overlap finds exactly the paper's
// foreign keys plus Example 3.10's mother ⊆ PhoneDir inclusion, and the
// chase value occurs where the scripts expect it.
func TestGeneratedDataMinesPaperKnowledge(t *testing.T) {
	want := []string{
		"Children.fid = Parents.ID",
		"Children.mid = Parents.ID",
		"Children.mid = PhoneDir.ID",
		"Parents.ID = PhoneDir.ID",
	}
	for seed := int64(1); seed <= 3; seed++ {
		dir := t.TempDir()
		if err := genKids(60, seed).write(dir); err != nil {
			t.Fatal(err)
		}
		in, err := csvio.LoadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range discovery.BuildKnowledge(context.Background(), in, true, 1).Edges() {
			a, b := e.From.String(), e.To.String()
			if a > b {
				a, b = b, a
			}
			got = append(got, a+" = "+b)
		}
		sort.Strings(got)
		if strings.Join(got, "; ") != strings.Join(want, "; ") {
			t.Errorf("seed %d: mined %v, want %v", seed, got, want)
		}
		var cols []string
		for _, o := range discovery.BuildValueIndex(context.Background(), in).Occurrences(value.Parse(chaseValue)) {
			cols = append(cols, o.Column.String())
		}
		if s := strings.Join(cols, " "); s != "Children.ID SBPS.ID XmasBar.giverID XmasBar.recipientID" {
			t.Errorf("seed %d: %s occurs in %s", seed, chaseValue, s)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the harness must honour.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// Every workload runs at smoke size, untraced and traced, without a
// failed request or an oracle mismatch; the last line carries exactly
// BENCHMARK.json's metrics with their units; and the traced run's
// layer self times add up to the measured request time.
func TestWorkloadsSmoke(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadOrder {
		for _, traced := range []bool{false, true} {
			wantMetrics := spec.EndToEnd
			if traced {
				wantMetrics = spec.PerLayer
			}
			seeds := []int64{1}
			if name == "kids-build" && !traced {
				seeds = []int64{1, 2, 3}
			}
			for _, seed := range seeds {
				res, err := run(workloads[name](smokeSizes), seed, 400*time.Millisecond, traced, t.TempDir())
				if err != nil {
					t.Fatalf("%s traced=%v seed %d: %v", name, traced, seed, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("%s traced=%v seed %d: correct=%v attempted=%d failed=%d",
						name, traced, seed, res.Correct, res.Attempted, res.Failed)
				}
				var out bytes.Buffer
				report(&out, name, res)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("%s: last line is not a result: %v", name, err)
				}
				if len(last.Metrics) != len(wantMetrics) {
					t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", name, traced, len(last.Metrics), len(wantMetrics))
				}
				for _, m := range wantMetrics {
					if got, ok := last.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("%s traced=%v: metric %s printed as %+v, want unit %s", name, traced, m.Name, got, m.Unit)
					}
				}
				if traced {
					if f := last.Metrics["fold.layer_sum_frac"].Value; f < 0.95 || f > 1.05 {
						t.Errorf("%s: layer self times sum to %.3f of request time", name, f)
					}
				}
			}
		}
	}
}

// The fold charges each instant to the deepest spans covering it,
// splits instants that overlapping siblings share, and grafts a
// detached root into the request that contains it.
func TestFoldSelfTime(t *testing.T) {
	f := newFold()
	f.on.Store(true)
	at := func(ms int64) int64 { return ms * 1e6 }
	n := func(name string, a, b int64, kids ...*node) *node {
		return &node{name: name, start: at(a), end: at(b), children: kids}
	}
	// A detached root arrives before the request that contains it.
	f.exportNode(n("workspace.target_view", 60, 70))
	root := n("bench.rows", 0, 100,
		n("serve.rows", 5, 95,
			n("fd.parallel", 10, 50, n("op.join", 10, 40), n("op.join", 20, 50)),
			n("core.evolve_on_dg", 50, 55)))
	f.exportNode(root)
	r := f.stop()
	want := map[string]int64{
		"bench":     at(10),
		"serve":     at(90 - 40 - 5 - 10),
		"fd":        0,
		"algebra":   at(40),
		"core":      at(5),
		"workspace": at(10),
	}
	for l, ns := range want {
		if r.layer[l] != ns {
			t.Errorf("layer %s: %d ns, want %d", l, r.layer[l], ns)
		}
	}
	if r.grafted != 1 || r.dropped != 0 {
		t.Errorf("grafted %d, dropped %d; want 1, 0", r.grafted, r.dropped)
	}
}
