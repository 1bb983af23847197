// Command servebench measures mapping sessions as a user drives them
// through `clio serve`: it runs the real internal/serve handler
// in-process (no sockets) through one of four scripted workloads,
// checks the answers against oracles, and prints every metric by name
// and unit, ending with one JSON line.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	servebench --workload kids-edit --seed 1 --seconds 15 --trace 0
//	servebench --workload all --json BENCH_serve.json
//
// --trace 0 reports the end-to-end metrics. --trace 1 reports the
// per-layer metrics: it measures half the time untraced, then half
// with every request wrapped in a root span whose tree the fold
// reduces to per-layer self time. See README.md for the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"clio/internal/fd"
	"clio/internal/obs"
	"clio/internal/serve"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind a timing, 0 otherwise
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// info is printed in the table only: numbers too noisy to bound.
	info map[string]metric
}

func main() {
	name := flag.String("workload", "all", "workload to run: "+strings.Join(workloadOrder, ", ")+", or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 15, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	jsonPath := flag.String("json", "", "with --workload all: write every result to `file`")
	flag.Parse()

	if *name == "all" {
		if err := runAll(*seed, *seconds, *jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, "servebench:", err)
			os.Exit(1)
		}
		return
	}
	mk, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "servebench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(2)
	dir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("servebench-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	res, err := run(mk(defaultSizes), *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, dir)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	report(os.Stdout, *name, res)
	if !res.Correct {
		os.Exit(1)
	}
}

// report prints the metrics as a table, then the result as the last
// line.
func report(w io.Writer, name string, res result) {
	fmt.Fprintf(w, "# %s: %d requests, %d failed, correct=%v\n", name, res.Attempted, res.Failed, res.Correct)
	table(w, res.Metrics)
	if len(res.info) > 0 {
		fmt.Fprintln(w, "# not bounded (host noise):")
		table(w, res.info)
	}
	line, err := json.Marshal(res)
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(w, string(line))
}

func table(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := ms[k]
		n := ""
		if m.n > 0 {
			n = fmt.Sprintf("n=%d", m.n)
		}
		fmt.Fprintf(w, "%-40s %14.6g %-8s %s\n", k, m.Value, m.Unit, n)
	}
}

// runAll runs every workload untraced and traced, each in a fresh
// process so the D(G) memo cache, metric registry and heap start
// empty, and optionally writes the results to jsonPath.
func runAll(seed int64, seconds float64, jsonPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	all := map[string]map[string]json.RawMessage{}
	for _, name := range workloadOrder {
		all[name] = map[string]json.RawMessage{}
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(seconds), "--trace", trace)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			os.Stdout.Write(out)
			if err != nil {
				return fmt.Errorf("%s --trace %s: %w", name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			key := map[string]string{"0": "untraced", "1": "traced"}[trace]
			all[name][key] = json.RawMessage(lines[len(lines)-1])
		}
	}
	if jsonPath == "" {
		return nil
	}
	doc := map[string]any{
		"command":   fmt.Sprintf("servebench --workload all --seed %d --seconds %g", seed, seconds),
		"host":      fmt.Sprintf("%s/%s, %d CPUs, %s", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version()),
		"workloads": all,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(jsonPath, append(data, '\n'), 0o644)
}

// bench is one benchmark process: its working directory, the current
// server, and the fold the traced phase uses.
type bench struct {
	seed    int64
	dir     string
	fold    *fold
	srv     *serve.Server
	h       http.Handler
	servers int // servers started, naming their directories
}

func (b *bench) path(parts ...string) string {
	return filepath.Join(append([]string{b.dir}, parts...)...)
}

// startServer replaces the current server with a fresh one configured
// as `clio serve` configures it by default (no journal, D(G) cache of
// 64, trace ring on), plus cfg's settings. A non-empty journal or spill
// directory in cfg asks for one; it is placed in the bench's directory
// and starts empty.
func (b *bench) startServer(cfg serve.Config) error {
	b.stopServer()
	b.servers++
	if cfg.JournalDir != "" {
		cfg.JournalDir = b.path(fmt.Sprintf("server%d", b.servers), "journal")
	}
	if cfg.Budget.SpillDir != "" {
		cfg.Budget.SpillDir = b.path(fmt.Sprintf("server%d", b.servers), "spill")
		if err := os.MkdirAll(cfg.Budget.SpillDir, 0o755); err != nil {
			return err
		}
	}
	b.srv = serve.New(cfg)
	b.h = b.srv.Handler()
	return nil
}

func (b *bench) stopServer() {
	if b.srv == nil {
		return
	}
	if err := b.srv.Shutdown(context.Background()); err != nil {
		fmt.Fprintln(os.Stderr, "servebench: shutdown:", err)
	}
	os.RemoveAll(b.path(fmt.Sprintf("server%d", b.servers)))
	b.srv, b.h = nil, nil
}

// setupClient is an untimed client of the current server.
func (b *bench) setupClient() *client { return newClient(b.h, newTally()) }

// phase is one timed phase's measurements.
type phase struct {
	t     *tally
	wall  time.Duration // minus untimed input generation and calibration
	start obs.Snapshot
	end   obs.Snapshot
	mem   [2]runtime.MemStats
	fold  foldResult
}

// measure runs w's rounds on its clients in closed loops until d has
// passed; a round in progress at the deadline completes. Every calEvery
// it times refKernel while no client is in a round.
func (b *bench) measure(w workload, d time.Duration, traced bool, next []int) (*phase, error) {
	p := &phase{t: newTally()}
	runtime.GC()
	if traced {
		b.fold.on.Store(true)
	}
	runtime.ReadMemStats(&p.mem[0])
	p.start = obs.SnapshotDefault()
	start := time.Now()
	deadline := start.Add(d)

	// Clients hold pause for reading through each round; the calibrator
	// takes it for writing.
	var pause sync.RWMutex
	var paused time.Duration
	done := make(chan struct{})
	calibrated := make(chan struct{})
	go func() {
		defer close(calibrated)
		tick := time.NewTicker(calEvery)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			pause.Lock()
			g := time.Now()
			p.t.ref.add(refKernel())
			paused += time.Since(g)
			pause.Unlock()
		}
	}()

	tallies := make([]*tally, w.clients())
	gens := make([]time.Duration, w.clients())
	errs := make([]error, w.clients())
	var wg sync.WaitGroup
	for k := range tallies {
		tallies[k] = newTally()
		c := newClient(b.h, tallies[k])
		c.traced = traced
		round := func(i int) error {
			pause.RLock()
			defer pause.RUnlock()
			g := time.Now()
			if err := w.input(b, i); err != nil {
				return err
			}
			r := time.Now()
			gens[k] += r.Sub(g)
			c.step = 0
			if err := w.round(b, c, i); err != nil {
				return err
			}
			tallies[k].rounds.add(time.Since(r).Seconds())
			return nil
		}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next[k]
				next[k]++
				if errs[k] = round(i); errs[k] != nil {
					return
				}
			}
		}(k)
	}
	wg.Wait()
	close(done)
	<-calibrated
	p.wall = time.Since(start) - paused
	if p.t.ref.n == 0 { // a phase shorter than calEvery
		calibrate(p.t.ref, 1)
	}
	p.end = obs.SnapshotDefault()
	runtime.ReadMemStats(&p.mem[1])
	if traced {
		p.fold = b.fold.stop()
	}
	var gen time.Duration
	for k, t := range tallies {
		p.t.merge(t)
		gen += gens[k]
		if errs[k] != nil {
			return nil, errs[k]
		}
	}
	p.wall -= gen / time.Duration(len(tallies))
	return p, nil
}

// setupReps is how many times a run sets up; setup_s is the median.
// Before each set-up the run times refKernel setupCal times.
const setupReps, setupCal = 5, 10

// run sets w up setupReps times, measures it for d (half untraced and
// half traced when traced is set), checks its outputs and computes the
// metrics.
func run(w workload, seed int64, d time.Duration, traced bool, dir string) (result, error) {
	b := &bench{seed: seed, dir: dir, fold: newFold()}
	// The fold sits downstream of every server's trace ring.
	obs.SetExporter(b.fold)
	defer obs.SetExporter(nil)
	defer b.stopServer()
	if err := w.prepare(b); err != nil {
		return result{}, fmt.Errorf("prepare: %w", err)
	}
	setups, ref := newSeries(), newSeries()
	for i := 0; i < setupReps; i++ {
		b.stopServer()
		fd.InvalidateCache()
		calibrate(ref, setupCal)
		start := time.Now()
		if err := w.setup(b); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups.add(time.Since(start).Seconds())
	}
	next := make([]int, w.clients())
	var res result
	var p *phase
	var err error
	if !traced {
		if p, err = b.measure(w, d, false, next); err != nil {
			return result{}, err
		}
		res = endToEnd(w, p, setups, ref)
	} else {
		untraced, err := b.measure(w, d/2, false, next)
		if err != nil {
			return result{}, err
		}
		if p, err = b.measure(w, d/2, true, next); err != nil {
			return result{}, err
		}
		if res, err = perLayer(b, w, p, untraced); err != nil {
			return result{}, err
		}
		fmt.Fprintf(os.Stderr, "servebench: fold grafted %d detached root(s); %d matched no request\n", p.fold.grafted, p.fold.dropped)
	}
	// The workloads are built so that no request fails; one that does
	// makes the run incorrect, so failing fast never reads as a speed-up.
	if res.Failed > 0 {
		fmt.Fprintf(os.Stderr, "servebench: %d request(s) failed, first: %s\n", res.Failed, strings.Join(p.t.failures, "; "))
		res.Correct = false
	}
	if err := w.check(b); err != nil {
		fmt.Fprintln(os.Stderr, "servebench: oracle mismatch:", err)
		res.Correct = false
	}
	return res, nil
}
