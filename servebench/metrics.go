package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"clio/internal/csvio"
	"clio/internal/workspace"
)

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// stepQ is the latency quantile the end-to-end timings report. The
// reference host is shared: other tenants' work slows a varying share
// of requests by up to 40%, so between runs of one binary a class's
// mean, median and p95 and the request rate moved by 15–25%, while the
// fast end of each step's latency moved by 3–13%. A timing is
// therefore the stepQ-quantile of each scripted step's latency over
// the run's rounds (what the step costs when nothing else competes),
// averaged over the steps of its class, so each endpoint weighs by its
// share of the script.
const stepQ = 0.1

// endToEnd computes the metrics a user of the server sees, its timings
// at the reference speed (calib.go), and, as information the bounds do
// not cover, the timings as measured, each class's p50 and p95 over all
// its requests and the request rate. setupRef holds the kernel timings
// taken between the set-ups.
func endToEnd(w workload, p *phase, setups, setupRef *series) result {
	t := p.t
	raw := map[string]metric{
		"setup_s":       {Value: setups.quantile(0.5), Unit: "s", n: setups.n},
		"session_s_p10": {Value: t.rounds.quantile(stepQ), Unit: "s", n: t.rounds.n},
	}
	for _, c := range []string{"create", "mutate", "read", "edit"} {
		v, n := t.stepQuantile(c, stepQ)
		raw[c+"_ms_step_p10"] = metric{Value: v, Unit: "ms", n: n}
	}
	if e, ok := w.(*kidsEdit); ok {
		// The edit session is created during set-up only; input times
		// creates of its dataset between the rounds.
		lat := e.creates.lat["create"]
		raw["create_ms_step_p10"] = metric{Value: lat.quantile(stepQ), Unit: "ms", n: lat.n}
	}
	info := map[string]metric{
		"ops_per_s":        {Value: float64(t.requests) / p.wall.Seconds(), Unit: "req/s", n: t.requests},
		"ref_ms_p10":       {Value: t.ref.quantile(stepQ), Unit: "ms", n: t.ref.n},
		"setup_ref_ms_p10": {Value: setupRef.quantile(stepQ), Unit: "ms", n: setupRef.n},
	}
	m := map[string]metric{
		"heap_live_mb_p95": {Value: t.heap.quantile(0.95), Unit: "MiB", n: t.heap.n},
	}
	for name, r := range raw {
		speed := refNominalMS / info["ref_ms_p10"].Value
		if name == "setup_s" {
			speed = refNominalMS / info["setup_ref_ms_p10"].Value
		}
		m[name] = metric{Value: r.Value * speed, Unit: r.Unit, n: r.n}
		info[name+"_measured"] = r
	}
	for _, c := range []string{"create", "mutate", "read", "edit"} {
		lat := t.lat[c]
		if lat.n == 0 {
			continue
		}
		info[c+"_ms_p50"] = metric{Value: lat.quantile(0.5), Unit: "ms", n: lat.n}
		info[c+"_ms_p95"] = metric{Value: lat.quantile(0.95), Unit: "ms", n: lat.n}
	}
	return result{Correct: true, Attempted: t.requests, Failed: t.failed, Metrics: m, info: info}
}

// perLayer computes the traced phase's per-layer metrics: self time
// from the fold, work counts from the metric registry, and the journal
// and CSV loader timed from outside, since they have no spans.
func perLayer(b *bench, w workload, p, untraced *phase) (result, error) {
	ops := float64(p.t.requests)
	sessions := float64(p.t.lat["create"].n)
	count := func(name string) float64 { return float64(p.end.Counters[name] - p.start.Counters[name]) }
	self := func(layer string) float64 { return float64(p.fold.layer[layer]) / 1e6 }
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

	for _, l := range []string{"bench", "serve", "workspace", "core", "fd", "algebra"} {
		set(l+".self_ms_per_op", ratio(self(l), ops), "ms/op")
	}
	set("discovery.self_ms_per_session", ratio(self("discovery"), sessions), "ms/session")
	for span, name := range selfP50Spans {
		s := p.fold.perSpan[span]
		if s == nil {
			s = newSeries()
		}
		m[name] = metric{Value: s.quantile(0.5), Unit: "ms", n: s.n}
	}

	set("core.examples.chosen_ratio", ratio(count("core.examples.chosen"), count("core.examples.built")), "ratio")
	set("core.evolve.fresh_per_run", ratio(count("core.evolve.fresh"), count("core.evolve.runs")), "count/run")
	set("core.alternatives_per_op", ratio(count("core.add_corr.alternatives")+count("core.walk.options")+count("core.chase.options"), ops), "count/op")
	set("fd.cache.hit_ratio", ratio(count("fd.cache.hits"), count("fd.cache.hits")+count("fd.cache.misses")), "ratio")
	set("fd.compute.calls_per_op", ratio(count("fd.compute.calls"), ops), "count/op")
	set("fd.route.incremental_frac", ratio(count("fd.incremental.extend"), count("fd.incremental.extend")+count("fd.incremental.full")), "ratio")
	set("fd.delta.apply_ratio", ratio(count("fd.delta.apply"), count("fd.delta.apply")+count("fd.delta.rebuild")), "ratio")
	set("fd.planner.reordered_ratio", ratio(count("fd.planner.reordered"), count("fd.planner.plans")), "ratio")
	set("algebra.join.probes_per_op", ratio(count("algebra.join.probes"), ops), "count/op")
	set("algebra.join.out_tuples_per_op", ratio(count("algebra.join.out_tuples"), ops), "count/op")
	set("algebra.iter.rows_per_op", ratio(count("algebra.iter.rows"), ops), "count/op")
	set("spill.bytes_per_op", ratio(count("spill.bytes"), ops), "B/op")
	set("spill.partitions_per_op", ratio(count("spill.partitions"), ops), "count/op")
	set("discovery.ind.pairs_per_session", ratio(count("discovery.ind.pairs"), sessions), "count/session")
	set("discovery.ind.mined_per_session", ratio(count("discovery.ind.mined"), sessions), "count/session")
	set("workspace.journal.snapshots", count("clio.journal.snapshots"), "count")

	set("runtime.alloc_mb_per_op", ratio(float64(p.mem[1].TotalAlloc-p.mem[0].TotalAlloc)/(1<<20), ops), "MiB/op")
	set("runtime.gc_pause_ms_per_op", ratio(float64(p.mem[1].PauseTotalNs-p.mem[0].PauseTotalNs)/1e6, ops), "ms/op")

	var total float64 // ms
	for _, lat := range p.t.lat {
		total += lat.sum
	}
	var layers int64
	for _, ns := range p.fold.layer {
		layers += ns
	}
	set("fold.layer_sum_frac", ratio(float64(layers)/1e6, total), "ratio")
	// Compared by round cost at stepQ, as the end-to-end timings are:
	// the request rates of the two halves differ by host noise alone.
	set("trace_overhead_frac", 1-ratio(untraced.t.roundCost(), p.t.roundCost()), "ratio")

	appendUS, bytesPer, err := timeJournal(b, p.t.records)
	if err != nil {
		return result{}, err
	}
	m["workspace.journal.append_us_p50"] = metric{Value: appendUS, Unit: "us", n: len(p.t.records)}
	set("workspace.journal.bytes_per_op", bytesPer, "B/op")
	loadMS, err := timeLoad(w.dataDir(b))
	if err != nil {
		return result{}, err
	}
	set("csvio.load_ms_p50", loadMS, "ms")

	return result{Correct: true, Attempted: p.t.requests, Failed: p.t.failed, Metrics: m}, nil
}

// journalSamples is how many appends timeJournal times.
const journalSamples = 200

// timeJournal appends the phase's own journal records (cycling through
// them) to a fresh journal that fsyncs every append, as the server's
// does, and returns the median append in µs and the bytes per record.
func timeJournal(b *bench, recs []workspace.JournalRecord) (float64, float64, error) {
	if len(recs) == 0 {
		return 0, 0, nil
	}
	dir := b.path("journal-timing")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	j := workspace.OpenJournal(dir, "timing", workspace.JournalOptions{FsyncEvery: 1})
	defer j.Close()
	lat := newSeries()
	for i := 0; i < journalSamples; i++ {
		start := time.Now()
		j.Append(recs[i%len(recs)])
		lat.add(float64(time.Since(start)) / 1e3)
	}
	if j.Degraded() {
		return 0, 0, fmt.Errorf("timing journal degraded to memory-only")
	}
	st, err := os.Stat(workspace.JournalPath(dir, "timing"))
	if err != nil {
		return 0, 0, err
	}
	return lat.quantile(0.5), float64(st.Size()) / journalSamples, nil
}

// timeLoad returns the median of five csvio.LoadDir calls on dir (0
// when the workload has no CSV source).
func timeLoad(dir string) (float64, error) {
	if dir == "" {
		return 0, nil
	}
	if _, err := os.Stat(filepath.Join(dir, "Children.csv")); err != nil {
		return 0, err
	}
	lat := newSeries()
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := csvio.LoadDir(dir); err != nil {
			return 0, err
		}
		lat.add(ms(time.Since(start)))
	}
	return lat.quantile(0.5), nil
}
