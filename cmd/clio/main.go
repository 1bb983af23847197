// Command clio is a scriptable command-line front end to the mapping
// tool: load a source database from CSV files (or the paper's built-in
// example), declare a target, and build a mapping interactively with
// correspondences, data walks, data chases, filters, and workspaces.
//
// Commands are read from stdin, one per line; lines starting with #
// are comments, so the REPL doubles as a script interpreter:
//
//	clio < session.clio
//
// Type "help" for the command list.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"clio/internal/core"
	"clio/internal/csvio"
	"clio/internal/discovery"
	"clio/internal/expr"
	"clio/internal/obs"
	"clio/internal/paperdb"
	"clio/internal/relation"
	"clio/internal/render"
	"clio/internal/schema"
	"clio/internal/sqlparse"
	"clio/internal/value"
	"clio/internal/workspace"
)

// traceFlag accepts --trace (text), --trace=text, or --trace=json.
type traceFlag struct{ mode string }

func (f *traceFlag) String() string { return f.mode }

func (f *traceFlag) Set(v string) error {
	switch v {
	case "", "true", "text":
		f.mode = "text"
	case "json":
		f.mode = "json"
	default:
		return fmt.Errorf("bad trace mode %q (want text or json)", v)
	}
	return nil
}

func (f *traceFlag) IsBoolFlag() bool { return true }

func main() {
	var trace traceFlag
	flag.Var(&trace, "trace", "print a span tree per command (text or json)")
	metricsPath := flag.String("metrics", "", "write a JSON metrics snapshot to `file` on exit")
	debugAddr := flag.String("debug-addr", "", "serve expvar and pprof on `addr` (e.g. localhost:6060)")
	flag.Parse()

	if trace.mode != "" {
		obs.SetEnabled(true)
		switch trace.mode {
		case "json":
			obs.SetExporter(&obs.JSONExporter{W: os.Stdout})
		default:
			obs.SetExporter(&obs.TextExporter{W: os.Stdout})
		}
	}
	if *metricsPath != "" {
		obs.SetEnabled(true)
	}
	if *debugAddr != "" {
		obs.SetEnabled(true)
		srv, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "clio:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/vars\n", srv.Addr)
	}

	var err error
	if flag.Arg(0) == "serve" {
		err = serveMain(flag.Args()[1:])
	} else {
		err = run(os.Stdin, os.Stdout)
	}
	if *metricsPath != "" {
		if werr := writeMetrics(*metricsPath); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "clio:", err)
		os.Exit(1)
	}
}

// writeMetrics dumps the default registry snapshot as indented JSON.
func writeMetrics(path string) error {
	data, err := json.MarshalIndent(obs.SnapshotDefault(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

type session struct {
	out    io.Writer
	in     *relation.Instance
	target *schema.Relation
	tool   *workspace.Tool
	mine   bool
}

func run(r io.Reader, w io.Writer) error {
	s := &session{out: w}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	interactive := false
	if f, ok := r.(*os.File); ok {
		if st, err := f.Stat(); err == nil && st.Mode()&os.ModeCharDevice != 0 {
			interactive = true
		}
	}
	for {
		if interactive {
			fmt.Fprint(w, "clio> ")
		}
		if !sc.Scan() {
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line == "quit" || line == "exit" {
			return nil
		}
		if err := s.exec(line); err != nil {
			fmt.Fprintln(w, "error:", err)
		}
	}
}

func (s *session) exec(line string) error {
	cmd, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)
	// One root span per REPL command: with --trace, the exporter
	// prints the command's whole span tree as soon as it ends.
	ctx, span := obs.StartSpan(context.Background(), "cmd."+cmd)
	defer span.End()
	switch cmd {
	case "help":
		s.help()
		return nil
	case "load":
		return s.load(rest)
	case "paper":
		s.in = paperdb.Instance()
		s.target = paperdb.Kids()
		fmt.Fprintln(s.out, "loaded the paper's Figure 1 database; target Kids")
		return nil
	case "mine":
		s.mine = true
		if s.tool != nil {
			fmt.Fprintln(s.out, "note: re-run start to rebuild knowledge with mining")
		}
		fmt.Fprintln(s.out, "IND mining enabled for the next start")
		return nil
	case "target":
		return s.setTarget(rest)
	case "rels":
		return s.rels()
	case "show":
		return s.show(rest)
	case "schema":
		return s.schema()
	case "start":
		return s.start(ctx, rest)
	case "corr":
		return s.corr(ctx, rest)
	case "walk":
		return s.walk(ctx, rest)
	case "chase":
		return s.chase(ctx, rest)
	case "ws":
		return s.listWorkspaces()
	case "diff":
		return s.diff(ctx, rest)
	case "cov":
		return s.coverage(ctx)
	case "status":
		if err := s.needTool(); err != nil {
			return err
		}
		fmt.Fprint(s.out, s.tool.TargetStatus())
		return nil
	case "dot":
		return s.dot()
	case "save":
		return s.save(rest)
	case "report":
		return s.report(ctx, rest)
	case "focus":
		return s.focus(ctx, rest)
	case "sample":
		return s.sample(rest)
	case "loadmap":
		return s.loadMapping(ctx, rest)
	case "importsql":
		return s.importSQL(ctx, rest)
	case "suggest":
		return s.suggest()
	case "use":
		return s.use(rest)
	case "delete":
		return s.del(rest)
	case "filter":
		return s.filter(ctx, rest)
	case "ill":
		return s.illustrate()
	case "sql":
		return s.sql()
	case "explain":
		if err := s.needTool(); err != nil {
			return err
		}
		if w := s.tool.Active(); w != nil {
			fmt.Fprint(s.out, w.Mapping.Explain())
			return nil
		}
		return fmt.Errorf("no active workspace")
	case "eval":
		return s.eval(ctx)
	case "accept":
		return s.accept()
	case "oplog":
		if err := s.needTool(); err != nil {
			return err
		}
		fmt.Fprint(s.out, s.tool.OpLogString())
		return nil
	case "undo":
		if err := s.needTool(); err != nil {
			return err
		}
		if err := s.tool.Undo(); err != nil {
			return err
		}
		fmt.Fprintln(s.out, "undone")
		return s.listWorkspaces()
	default:
		return fmt.Errorf("unknown command %q (try help)", cmd)
	}
}

func (s *session) help() {
	fmt.Fprint(s.out, `commands:
  paper                      load the paper's example database (target Kids)
  load <dir>                 load a directory of CSV files
  mine                       enable IND mining for the next start
  target Name(a, b, ...)     declare the target relation
  rels                       list source relations
  show <R> [n]               print relation R (first n rows)
  schema                     print the source schema and join knowledge
  start <name>               open a workspace for a new mapping
  corr <expr> -> <T.attr>    add a value correspondence (walks if needed)
  walk <node> <relation>     data walk from a graph node to a relation
  chase <R.attr> <value>     data chase on a value of a graph column
  ws                         list workspaces (* marks active)
  diff <id1> <id2>           compare two workspaces with examples
  cov                        coverage-category summary of the active mapping
  status                     which target attributes are mapped so far
  dot                        active query graph in Graphviz dot syntax
  save <file>                save the active mapping as JSON
  report <file.html>         write an HTML report of the active workspace
  focus <node> <attr> <val>  show all examples involving matching tuples
  sample <n>                 switch to a sampled instance (n rows/relation)
  loadmap <file>             load a mapping JSON into a new workspace
  importsql <file>           import a SQL view definition as a mapping
  suggest                    rank likely correspondences by name match
  use <id>                   activate a workspace
  delete <id>                delete a workspace
  filter source|target <p>   add a trimming predicate
  ill                        show the active illustration
  sql                        show the active mapping's SQL
  explain                    narrate the active mapping in plain English
  eval                       show the WYSIWYG target view
  accept                     confirm the active mapping
  oplog                      show the session's operation log
  undo                       back out the last operator
  quit                       exit
`)
}

func (s *session) load(dir string) error {
	if dir == "" {
		return fmt.Errorf("usage: load <dir>")
	}
	in, err := csvio.LoadDir(dir)
	if err != nil {
		return err
	}
	s.in = in
	fmt.Fprintf(s.out, "loaded %d relations (%d tuples)\n", len(in.Names()), in.TotalTuples())
	return nil
}

func (s *session) setTarget(spec string) error {
	t, err := schema.ParseRelationSpec(spec)
	if err != nil {
		return err
	}
	s.target = t
	fmt.Fprintf(s.out, "target %s\n", s.target)
	return nil
}

func (s *session) needInstance() error {
	if s.in == nil {
		return fmt.Errorf("no source loaded (use load or paper)")
	}
	return nil
}

func (s *session) needTool() error {
	if s.tool == nil {
		return fmt.Errorf("no session started (use start)")
	}
	return nil
}

func (s *session) rels() error {
	if err := s.needInstance(); err != nil {
		return err
	}
	for _, n := range s.in.Names() {
		r := s.in.Relation(n)
		fmt.Fprintf(s.out, "%s: %d tuples, scheme %v\n", n, r.Len(), r.Scheme())
	}
	return nil
}

func (s *session) show(rest string) error {
	if err := s.needInstance(); err != nil {
		return err
	}
	name, nStr, _ := strings.Cut(rest, " ")
	r := s.in.Relation(name)
	if r == nil {
		return fmt.Errorf("no relation %q", name)
	}
	max := 0
	if nStr != "" {
		var err error
		if max, err = strconv.Atoi(strings.TrimSpace(nStr)); err != nil {
			return fmt.Errorf("bad row count %q", nStr)
		}
	}
	fmt.Fprint(s.out, render.Table(r, render.Options{Unqualify: true, MaxRows: max}))
	return nil
}

func (s *session) schema() error {
	if err := s.needInstance(); err != nil {
		return err
	}
	if s.in.Schema != nil {
		fmt.Fprint(s.out, s.in.Schema.String())
	}
	if s.tool != nil {
		fmt.Fprintln(s.out, "join knowledge:")
		for _, e := range s.tool.Knowledge.Edges() {
			fmt.Fprintf(s.out, "  %s\n", e)
		}
	}
	return nil
}

func (s *session) start(ctx context.Context, name string) error {
	if err := s.needInstance(); err != nil {
		return err
	}
	if s.target == nil {
		return fmt.Errorf("no target declared (use target)")
	}
	if name == "" {
		name = "mapping"
	}
	s.tool = workspace.New(ctx, s.in, s.target, s.mine)
	if err := s.tool.Start(name); err != nil {
		return err
	}
	fmt.Fprintf(s.out, "workspace opened for mapping %q (knowledge: %d candidate joins)\n",
		name, len(s.tool.Knowledge.Edges()))
	return nil
}

func (s *session) corr(ctx context.Context, rest string) error {
	if err := s.needTool(); err != nil {
		return err
	}
	c, err := core.ParseCorrespondence(rest)
	if err != nil {
		return err
	}
	if err := s.tool.AddCorrespondence(ctx, c); err != nil {
		return err
	}
	return s.listWorkspaces()
}

func (s *session) walk(ctx context.Context, rest string) error {
	if err := s.needTool(); err != nil {
		return err
	}
	parts := strings.Fields(rest)
	if len(parts) != 2 {
		return fmt.Errorf("usage: walk <node> <relation>")
	}
	if err := s.tool.Walk(ctx, parts[0], parts[1]); err != nil {
		return err
	}
	return s.listWorkspaces()
}

func (s *session) chase(ctx context.Context, rest string) error {
	if err := s.needTool(); err != nil {
		return err
	}
	parts := strings.Fields(rest)
	if len(parts) != 2 {
		return fmt.Errorf("usage: chase <R.attr> <value>")
	}
	if err := s.tool.Chase(ctx, parts[0], value.Parse(parts[1])); err != nil {
		return err
	}
	return s.listWorkspaces()
}

func (s *session) listWorkspaces() error {
	if err := s.needTool(); err != nil {
		return err
	}
	act := s.tool.Active()
	for _, w := range s.tool.Workspaces() {
		mark := " "
		if w == act {
			mark = "*"
		}
		fmt.Fprintf(s.out, "%s [%d] %s — graph {%s}\n", mark, w.ID, w.Note,
			strings.Join(w.Mapping.Graph.Nodes(), ", "))
	}
	return nil
}

func (s *session) diff(ctx context.Context, rest string) error {
	if err := s.needTool(); err != nil {
		return err
	}
	parts := strings.Fields(rest)
	if len(parts) != 2 {
		return fmt.Errorf("usage: diff <id1> <id2>")
	}
	id1, err1 := strconv.Atoi(parts[0])
	id2, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil {
		return fmt.Errorf("usage: diff <id1> <id2>")
	}
	out, err := s.tool.Compare(ctx, id1, id2, 5)
	if err != nil {
		return err
	}
	fmt.Fprint(s.out, out)
	return nil
}

func (s *session) coverage(ctx context.Context) error {
	if err := s.needTool(); err != nil {
		return err
	}
	out, err := s.tool.CoverageSummary(ctx)
	if err != nil {
		return err
	}
	fmt.Fprint(s.out, out)
	return nil
}

func (s *session) report(ctx context.Context, path string) error {
	if err := s.needTool(); err != nil {
		return err
	}
	w := s.tool.Active()
	if w == nil {
		return fmt.Errorf("no active workspace")
	}
	if path == "" {
		return fmt.Errorf("usage: report <file.html>")
	}
	view, err := s.tool.TargetView(ctx)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = render.WriteHTML(f, render.HTMLReport{
		Title:        "Clio session: " + w.Mapping.Name,
		Mapping:      w.Mapping,
		Illustration: w.Illustration,
		TargetView:   view,
		Abbrev:       paperdb.Abbrev(),
	})
	cerr := f.Close()
	if err != nil {
		return err
	}
	if cerr != nil {
		return cerr
	}
	fmt.Fprintf(s.out, "wrote %s\n", path)
	return nil
}

func (s *session) focus(ctx context.Context, rest string) error {
	if err := s.needTool(); err != nil {
		return err
	}
	w := s.tool.Active()
	if w == nil {
		return fmt.Errorf("no active workspace")
	}
	parts := strings.Fields(rest)
	if len(parts) != 3 {
		return fmt.Errorf("usage: focus <node> <attr> <value>")
	}
	node, attr, val := parts[0], parts[1], value.Parse(parts[2])
	gn, ok := w.Mapping.Graph.Node(node)
	if !ok {
		return fmt.Errorf("no graph node %q", node)
	}
	rel, err := s.in.Aliased(gn.Base, gn.Name)
	if err != nil {
		return err
	}
	col := node + "." + attr
	if rel.Scheme().Index(col) < 0 {
		return fmt.Errorf("no column %s", col)
	}
	var focusTuples []relation.Tuple
	for _, tp := range rel.Tuples() {
		if tp.Get(col).Equal(val) {
			focusTuples = append(focusTuples, tp)
		}
	}
	if len(focusTuples) == 0 {
		return fmt.Errorf("no %s tuple with %s = %v", node, attr, val)
	}
	il, err := core.Focus(ctx, w.Mapping, s.in, node, focusTuples)
	if err != nil {
		return err
	}
	fmt.Fprint(s.out, render.Illustration(il, paperdb.Abbrev()))
	return nil
}

func (s *session) sample(rest string) error {
	if err := s.needInstance(); err != nil {
		return err
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n <= 0 {
		return fmt.Errorf("usage: sample <n>")
	}
	s.in = relation.SampleInstance(s.in, n, 1)
	if s.tool != nil {
		fmt.Fprintln(s.out, "note: re-run start to rebuild over the sample")
	}
	fmt.Fprintf(s.out, "sampled to at most %d rows per relation (%d tuples total)\n", n, s.in.TotalTuples())
	return nil
}

func (s *session) dot() error {
	if err := s.needTool(); err != nil {
		return err
	}
	w := s.tool.Active()
	if w == nil {
		return fmt.Errorf("no active workspace")
	}
	fmt.Fprint(s.out, render.Dot(w.Mapping.Graph, w.Mapping.Name))
	return nil
}

func (s *session) save(path string) error {
	if err := s.needTool(); err != nil {
		return err
	}
	w := s.tool.Active()
	if w == nil {
		return fmt.Errorf("no active workspace")
	}
	if path == "" {
		return fmt.Errorf("usage: save <file>")
	}
	data, err := w.Mapping.MarshalJSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(s.out, "saved mapping %q to %s\n", w.Mapping.Name, path)
	return nil
}

func (s *session) loadMapping(ctx context.Context, path string) error {
	if err := s.needInstance(); err != nil {
		return err
	}
	if path == "" {
		return fmt.Errorf("usage: loadmap <file>")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	m, err := core.UnmarshalMapping(data)
	if err != nil {
		return err
	}
	if err := m.Validate(s.in); err != nil {
		return err
	}
	if s.tool == nil {
		s.target = m.Target
		s.tool = workspace.New(ctx, s.in, m.Target, s.mine)
	}
	if err := s.tool.Start(m.Name); err != nil {
		return err
	}
	// Replace the fresh empty mapping with the loaded one.
	s.tool.Active().Mapping = m
	fmt.Fprintf(s.out, "loaded mapping %q (%d nodes, %d correspondences)\n",
		m.Name, m.Graph.NodeCount(), len(m.Corrs))
	return nil
}

func (s *session) suggest() error {
	if err := s.needInstance(); err != nil {
		return err
	}
	if s.target == nil {
		return fmt.Errorf("no target declared (use target)")
	}
	suggestions := discovery.SuggestCorrespondences(s.in, s.target, 3)
	if len(suggestions) == 0 {
		fmt.Fprintln(s.out, "no likely correspondences found")
		return nil
	}
	for _, sg := range suggestions {
		fmt.Fprintf(s.out, "  %.2f  corr %s -> %s\n", sg.Score, sg.Source, sg.Target)
	}
	return nil
}

func (s *session) importSQL(ctx context.Context, path string) error {
	if err := s.needInstance(); err != nil {
		return err
	}
	if path == "" {
		return fmt.Errorf("usage: importsql <file>")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	m, err := sqlparse.ImportMapping(string(data), s.in, "")
	if err != nil {
		return err
	}
	if err := m.Validate(s.in); err != nil {
		return err
	}
	if s.tool == nil {
		s.target = m.Target
		s.tool = workspace.New(ctx, s.in, m.Target, s.mine)
	}
	if err := s.tool.Start(m.Name); err != nil {
		return err
	}
	s.tool.Active().Mapping = m
	fmt.Fprintf(s.out, "imported mapping %q from SQL (%d nodes)\n", m.Name, m.Graph.NodeCount())
	return nil
}

func (s *session) use(rest string) error {
	if err := s.needTool(); err != nil {
		return err
	}
	id, err := strconv.Atoi(rest)
	if err != nil {
		return fmt.Errorf("usage: use <id>")
	}
	return s.tool.Use(id)
}

func (s *session) del(rest string) error {
	if err := s.needTool(); err != nil {
		return err
	}
	id, err := strconv.Atoi(rest)
	if err != nil {
		return fmt.Errorf("usage: delete <id>")
	}
	return s.tool.Delete(id)
}

func (s *session) filter(ctx context.Context, rest string) error {
	if err := s.needTool(); err != nil {
		return err
	}
	kind, predStr, _ := strings.Cut(rest, " ")
	p, err := expr.Parse(strings.TrimSpace(predStr))
	if err != nil {
		return err
	}
	switch kind {
	case "source":
		return s.tool.AddSourceFilter(ctx, p)
	case "target":
		return s.tool.AddTargetFilter(ctx, p)
	default:
		return fmt.Errorf("usage: filter source|target <pred>")
	}
}

func (s *session) illustrate() error {
	if err := s.needTool(); err != nil {
		return err
	}
	w := s.tool.Active()
	if w == nil {
		return fmt.Errorf("no active workspace")
	}
	fmt.Fprint(s.out, render.Illustration(w.Illustration, paperdb.Abbrev()))
	return nil
}

func (s *session) sql() error {
	if err := s.needTool(); err != nil {
		return err
	}
	w := s.tool.Active()
	if w == nil {
		return fmt.Errorf("no active workspace")
	}
	fmt.Fprintln(s.out, w.Mapping.CanonicalSQL())
	if root, ok := w.Mapping.RequiredRoot(); ok {
		if view, err := w.Mapping.ViewSQL(root); err == nil {
			fmt.Fprintln(s.out, view)
		}
	}
	return nil
}

func (s *session) eval(ctx context.Context) error {
	if err := s.needTool(); err != nil {
		return err
	}
	view, err := s.tool.TargetView(ctx)
	if err != nil {
		return err
	}
	fmt.Fprint(s.out, render.Table(view, render.Options{Unqualify: true}))
	return nil
}

func (s *session) accept() error {
	if err := s.needTool(); err != nil {
		return err
	}
	if err := s.tool.Confirm(); err != nil {
		return err
	}
	fmt.Fprintf(s.out, "accepted (%d mapping(s) confirmed)\n", len(s.tool.Accepted()))
	return nil
}
