package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"

	"clio/internal/fd"
	"clio/internal/paperdb"
	"clio/internal/serve"
)

// workload is one scripted traffic mix. Every client runs rounds (a
// session, or a block of edit loops) in a closed loop.
type workload interface {
	clients() int
	// prepare generates the inputs set-up needs (untimed).
	prepare(b *bench) error
	// setup starts a server and brings it to the first timed request.
	setup(b *bench) error
	// input prepares round i's inputs (untimed).
	input(b *bench, i int) error
	// round runs round i on client c.
	round(b *bench, c *client, i int) error
	// check runs the output oracles after the timed phases.
	check(b *bench) error
	// dataDir is a CSV dataset of the workload's size, "" if it has none.
	dataDir(b *bench) string
}

var workloads = map[string]func(sz sizes) workload{
	"paper-tour": func(sizes) workload { return &paperTour{views: map[string]*tourView{}} },
	"kids-build": func(sz sizes) workload { return &kidsBuild{n: sz.buildN} },
	"kids-edit":  func(sz sizes) workload { return &kidsEdit{n: sz.editN, creates: newTally()} },
	"kids-spill": func(sz sizes) workload { return &kidsBuild{n: sz.buildN, spill: true} },
}

// workloadOrder is the order the all-workloads mode runs them in.
var workloadOrder = []string{"paper-tour", "kids-build", "kids-edit", "kids-spill"}

// sizes are the workloads' input sizes; tests shrink them.
type sizes struct {
	buildN int // children per kids-build / kids-spill dataset
	editN  int // children in the kids-edit session
}

var defaultSizes = sizes{buildN: 1000, editN: 2000}

func corr(spec string) step { return mkStep("corr", map[string]any{"spec": spec}) }

func read(op string) step { return mkStep(op, nil) }

var (
	stepAccept = mkStep("accept", nil)
	stepUndo   = mkStep("undo", nil)
	stepDelete = mkStep("delete", nil)
	stepFilter = mkStep("filter", map[string]any{"kind": "target", "pred": "Kids.ID IS NOT NULL"})
	stepWalk   = mkStep("walk", map[string]any{"from": "Children", "to": "PhoneDir"})
	mapSteps   = []step{
		corr("Children.ID -> Kids.ID"),
		corr("Children.name -> Kids.name"),
		corr("Parents.affiliation -> Kids.affiliation"),
		stepWalk,
	}
)

func chase(v string) step {
	return mkStep("chase", map[string]any{"column": "Children.ID", "value": v})
}

func rows(rel string, del bool, vals ...string) step {
	args := map[string]any{"relation": rel, "values": vals}
	if del {
		args["delete"] = true
	}
	return mkStep("rows", args)
}

// runSteps runs steps on session id, returning the body of every step
// by position.
func runSteps(c *client, id string, steps []step) [][]byte {
	out := make([][]byte, len(steps))
	for i, s := range steps {
		_, body := c.do(id, s)
		out[i] = body
	}
	return out
}

// paperTour replays the Section 2 scenario on the Figure 1 instance.
type paperTour struct {
	mu sync.Mutex
	// views maps the digest of each distinct final view body to the
	// body and the sessions that returned it.
	views map[string]*tourView
}

type tourView struct {
	body     []byte
	sessions int
}

var paperCreate = map[string]any{"source": "paper", "name": "kids"}

// paperSteps follows the create request; the last view is the one the
// oracle checks.
var paperSteps = append(append([]step{}, mapSteps...),
	read("illustration"), read("view"), read("examples"),
	chase("002"), stepAccept,
	rows("Children", false, "011", "Lea", "8", "104", "", "d3"),
	read("view"),
	rows("Children", true, "011", "Lea", "8", "104", "", "d3"),
	stepUndo, read("view"), stepDelete)

func (w *paperTour) clients() int            { return 2 }
func (w *paperTour) prepare(*bench) error    { return nil }
func (w *paperTour) input(*bench, int) error { return nil }
func (w *paperTour) dataDir(*bench) string   { return "" }

// tourWarmup is how many sessions set-up runs: a session takes a few
// milliseconds, and a set-up that short would time little but noise.
const tourWarmup = 50

func (w *paperTour) setup(b *bench) error {
	if err := b.startServer(serve.Config{}); err != nil {
		return err
	}
	c := b.setupClient()
	for i := 0; i < tourWarmup; i++ {
		if err := w.session(c, false); err != nil {
			return err
		}
	}
	return nil
}

func (w *paperTour) round(b *bench, c *client, i int) error { return w.session(c, true) }

func (w *paperTour) session(c *client, record bool) error {
	id, body := c.create(paperCreate)
	if id == "" {
		return fmt.Errorf("paper-tour: create failed: %s", body)
	}
	out := runSteps(c, id, paperSteps)
	if record {
		body := out[len(out)-2]
		d := bodyDigest(body)
		w.mu.Lock()
		v := w.views[d]
		if v == nil {
			v = &tourView{body: bytes.Clone(body)}
			w.views[d] = v
		}
		v.sessions++
		w.mu.Unlock()
	}
	return nil
}

func (w *paperTour) check(b *bench) error {
	want, err := replayDirect(paperdb.Instance(), paperdb.Kids(), false, paperSteps)
	if err != nil {
		return fmt.Errorf("paper-tour oracle: %w", err)
	}
	if len(w.views) == 0 {
		return fmt.Errorf("paper-tour: no session finished")
	}
	for _, v := range w.views {
		if err := sameRows(v.body, want); err != nil {
			return fmt.Errorf("paper-tour: %d session(s) ended on a wrong view: %w", v.sessions, err)
		}
	}
	return nil
}

// kidsBuild maps one freshly generated dataset per session. With spill
// set it is kids-spill: the same datasets and script minus the chase,
// under a resident cap that makes D(G) spill.
type kidsBuild struct {
	n     int
	spill bool
	dir   string // current round's dataset
	// The oracles check every 8th session and the last one: kids-build
	// by the digest of the rows of the view after the edit burst,
	// kids-spill by the digests of that view's and the examples'
	// bodies. Digests keep the benchmark's own heap flat however many
	// sessions a run completes.
	digests map[int][2]string
	last    int
}

// kidsTarget is the Figure 2 Kids relation as a create-request spec.
const kidsTarget = "Kids(ID, name, address, affiliation, contactPh, BusSchedule, FamilyIncome, ArrivalTime)"

func kidsCreate(dir string) map[string]any {
	return map[string]any{"source": dir, "target": kidsTarget, "name": "kids", "mine": true}
}

// steps is the per-session script after create; viewAt and examplesAt
// index the bodies the oracles compare.
func (w *kidsBuild) steps() (steps []step, viewAt, examplesAt int) {
	steps = append([]step{}, mapSteps...)
	if !w.spill {
		steps = append(steps, chase(chaseValue))
	}
	steps = append(steps, stepFilter, read("illustration"), read("examples"), read("view"), stepAccept)
	examplesAt = len(steps) - 3
	// An edit burst on the accepted mapping: a child of family 0's
	// mother and family 1's father, and a second phone for family 1's
	// mother, both of which every dataset has.
	child := []string{"e000001", "New-1", "7", "100000", "100003", "d1"}
	phone := []string{"100002", "cell", "556-0000001"}
	steps = append(steps, rows("Children", false, child...), rows("PhoneDir", false, phone...), read("view"),
		rows("PhoneDir", true, phone...), rows("Children", true, child...), stepDelete)
	return steps, len(steps) - 4, examplesAt
}

func (w *kidsBuild) clients() int            { return 1 }
func (w *kidsBuild) dataDir(b *bench) string { return b.path("data", "warmup") }

// spillCap is kids-spill's resident cap: under it each session's D(G)
// spills once, where 4 MiB aborts the walk and 8 MiB spills nothing.
const spillCap = 6 << 20

func (w *kidsBuild) config() serve.Config {
	if !w.spill {
		return serve.Config{}
	}
	return serve.Config{Budget: fd.Budget{MaxBytes: spillCap, SpillDir: "spill", SpillRecursionDepth: 3}}
}

// datasetSeed numbers the datasets: session i of a run uses
// seed×1000+i, set-up the one after the last a run can reach.
func datasetSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

const warmupDataset = 999

func (w *kidsBuild) prepare(b *bench) error {
	w.digests = map[int][2]string{}
	return genKids(w.n, datasetSeed(b.seed, warmupDataset)).write(b.path("data", "warmup"))
}

func (w *kidsBuild) setup(b *bench) error {
	if err := b.startServer(w.config()); err != nil {
		return err
	}
	id, body := b.setupClient().create(kidsCreate(b.path("data", "warmup")))
	if id == "" {
		return fmt.Errorf("create failed: %s", body)
	}
	steps, _, _ := w.steps()
	runSteps(b.setupClient(), id, steps)
	return nil
}

func (w *kidsBuild) input(b *bench, i int) error {
	if i >= warmupDataset {
		return fmt.Errorf("kids: more than %d sessions in one run", warmupDataset)
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
	w.dir = b.path("data", fmt.Sprint(i))
	return genKids(w.n, datasetSeed(b.seed, i)).write(w.dir)
}

func (w *kidsBuild) round(b *bench, c *client, i int) error {
	id, body := c.create(kidsCreate(w.dir))
	if id == "" {
		return fmt.Errorf("create failed: %s", body)
	}
	steps, viewAt, examplesAt := w.steps()
	out := runSteps(c, id, steps)
	if w.last%8 != 0 {
		delete(w.digests, w.last)
	}
	w.last = i
	if !w.spill {
		d, err := rowsDigest(out[viewAt])
		if err != nil {
			return err
		}
		w.digests[i] = [2]string{d}
	} else {
		w.digests[i] = [2]string{bodyDigest(out[viewAt]), bodyDigest(out[examplesAt])}
	}
	return nil
}

// sampled returns the rounds the oracles check: every 8th and the last.
func (w *kidsBuild) sampled() []int {
	var out []int
	for i := 0; i <= w.last; i += 8 {
		out = append(out, i)
	}
	if w.last%8 != 0 {
		out = append(out, w.last)
	}
	return out
}

func (w *kidsBuild) check(b *bench) error {
	if len(w.digests) == 0 {
		return fmt.Errorf("no session finished")
	}
	steps, viewAt, examplesAt := w.steps()
	if !w.spill {
		// Replay each sampled session on the tool directly.
		for _, i := range w.sampled() {
			dir := b.path("oracle", fmt.Sprint(i))
			if err := genKids(w.n, datasetSeed(b.seed, i)).write(dir); err != nil {
				return err
			}
			want, err := replayCSV(dir, steps[:viewAt])
			if err != nil {
				return fmt.Errorf("session %d oracle: %w", i, err)
			}
			if w.digests[i][0] != digestRows(want) {
				return fmt.Errorf("session %d: final view differs from the tool's own", i)
			}
		}
		return nil
	}
	// kids-spill: the same sessions on an unbudgeted server must answer
	// byte-identical view and examples bodies.
	if err := b.startServer(serve.Config{}); err != nil {
		return err
	}
	c := b.setupClient()
	for _, i := range w.sampled() {
		dir := b.path("oracle", fmt.Sprint(i))
		if err := genKids(w.n, datasetSeed(b.seed, i)).write(dir); err != nil {
			return err
		}
		id, body := c.create(kidsCreate(dir))
		if id == "" {
			return fmt.Errorf("oracle create failed: %s", body)
		}
		out := runSteps(c, id, steps)
		if bodyDigest(out[viewAt]) != w.digests[i][0] {
			return fmt.Errorf("session %d: spilled view differs from the unbudgeted one", i)
		}
		if bodyDigest(out[examplesAt]) != w.digests[i][1] {
			return fmt.Errorf("session %d: spilled examples differ from the unbudgeted ones", i)
		}
	}
	return nil
}

// kidsEdit edits one long-lived mapped session: every loop edits a
// Children row (odd loops delete the row the loop before inserted),
// reads the view and illustration, and polls the watch feed; every odd
// loop also tries a target filter and backs it out, and every tenth
// loop inserts a PhoneDir row that the loop after deletes. A round is
// two loops, so each round leaves the instance as it found it.
type kidsEdit struct {
	n       int
	data    *kidsData
	id      string
	loop    int    // loops run so far
	next    int64  // watch cursor
	unseen  int    // state-changing ops since the last watch poll
	creates *tally // the creates input times between rounds
	// badWatch counts polls that did not return exactly the events of
	// the ops since the previous poll.
	badWatch int
}

func (w *kidsEdit) clients() int            { return 1 }
func (w *kidsEdit) dataDir(b *bench) string { return b.path("data", "edit") }

func (w *kidsEdit) prepare(b *bench) error {
	w.data = genKids(w.n, datasetSeed(b.seed, 0))
	return w.data.write(b.path("data", "edit"))
}

// editConfig is `clio serve -journal-dir D -snapshot-every 64`: crash-safe
// sessions, every append fsynced, a state snapshot every 64 ops.
var editConfig = serve.Config{JournalDir: "journal", JournalFsyncEvery: 1, SnapshotEvery: 64}

func (w *kidsEdit) setup(b *bench) error {
	if err := b.startServer(editConfig); err != nil {
		return err
	}
	c := b.setupClient()
	id, body := c.create(kidsCreate(w.dataDir(b)))
	if id == "" {
		return fmt.Errorf("create failed: %s", body)
	}
	w.id, w.loop, w.next, w.unseen = id, 0, 0, 0
	for _, s := range mapSteps {
		if status, body := c.do(id, s); status != 200 {
			return fmt.Errorf("%s failed: %s", s.op, body)
		}
	}
	w.poll(c) // creates the watcher and its baseline
	return w.round(b, c, 0)
}

// Before every fifth round, input opens and deletes two sessions of the
// edit dataset. The edit session itself is created once, in set-up, so
// these are the creates create_ms_step_p10 times: spread over the whole
// run, as every other workload's are.
const createEvery, createsEach = 5, 2

func (w *kidsEdit) input(b *bench, i int) error {
	if i%createEvery != 0 {
		return nil
	}
	c := newClient(b.h, w.creates)
	for k := 0; k < createsEach; k++ {
		id, body := c.create(kidsCreate(w.dataDir(b)))
		if id == "" {
			return fmt.Errorf("create failed: %s", body)
		}
		if status, body := c.do(id, stepDelete); status != 200 {
			return fmt.Errorf("delete failed: %s", body)
		}
	}
	// Free the deleted sessions before the timed round, so the live heap
	// it samples holds the edit session alone.
	runtime.GC()
	return nil
}

func (w *kidsEdit) childRow(j int) []string {
	return []string{fmt.Sprintf("e%06d", j), fmt.Sprintf("New-%d", j), "7",
		w.data.mothers[j%len(w.data.mothers)], w.data.fathers[(j*7)%len(w.data.fathers)], "d1"}
}

func (w *kidsEdit) phoneRow(j int) []string {
	return []string{w.data.mothers[(j*3)%len(w.data.mothers)], "cell", fmt.Sprintf("556-%07d", j)}
}

func (w *kidsEdit) edit(c *client, s step) {
	c.do(w.id, s)
	w.unseen++
}

func (w *kidsEdit) poll(c *client) {
	_, body := c.send("watch", "GET", fmt.Sprintf("/api/sessions/%s/watch?after=%d&wait_ms=0", w.id, w.next), nil)
	var out struct {
		Events []json.RawMessage `json:"events"`
		Next   int64             `json:"next"`
	}
	if err := json.Unmarshal(body, &out); err != nil || len(out.Events) != w.unseen {
		w.badWatch++
	}
	w.next, w.unseen = out.Next, 0
}

// A kids-edit round is two loops: the first inserts a Children row and
// the second deletes it, and in every fifth round the first also
// inserts a PhoneDir row that the second deletes.
//
// Only every fifth round sends the PhoneDir edits, so the k-th request
// is not always the same step; each request therefore names its step,
// the first loop's (at most five) before the second's.
func (w *kidsEdit) round(b *bench, c *client, i int) error {
	for k := 0; k < 2; k++ {
		j := w.loop
		w.loop++
		base := k * 5
		c.at(base)
		if k == 0 {
			w.edit(c, rows("Children", false, w.childRow(j)...))
		} else {
			w.edit(c, rows("Children", true, w.childRow(j-1)...))
		}
		switch {
		case j%10 == 0:
			w.edit(c, rows("PhoneDir", false, w.phoneRow(j)...))
		case j%10 == 1:
			w.edit(c, rows("PhoneDir", true, w.phoneRow(j-1)...))
		}
		c.at(base + 2)
		c.do(w.id, read("view"))
		c.do(w.id, read("illustration"))
		w.poll(c)
		if k == 1 {
			w.edit(c, stepFilter)
			w.edit(c, stepUndo)
		}
	}
	return nil
}

// check inserts one more Children and PhoneDir row and compares the
// delta-maintained view with a fresh tool built on the final instance.
func (w *kidsEdit) check(b *bench) error {
	if w.badWatch > 0 {
		return fmt.Errorf("%d watch poll(s) missed or repeated events", w.badWatch)
	}
	c := b.setupClient()
	child, phone := w.childRow(1<<20), w.phoneRow(1<<20)
	for _, s := range []step{rows("Children", false, child...), rows("PhoneDir", false, phone...)} {
		if status, body := c.do(w.id, s); status != 200 {
			return fmt.Errorf("final edit failed: %s", body)
		}
	}
	_, got := c.do(w.id, read("view"))
	final := &kidsData{rels: map[string][][]string{}}
	for k, v := range w.data.rels {
		final.rels[k] = v
	}
	final.rels["Children"] = append(append([][]string{}, w.data.rels["Children"]...), child)
	final.rels["PhoneDir"] = append(append([][]string{}, w.data.rels["PhoneDir"]...), phone)
	dir := b.path("oracle", "edit")
	if err := final.write(dir); err != nil {
		return err
	}
	want, err := replayCSV(dir, mapSteps)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	return sameRows(got, want)
}
