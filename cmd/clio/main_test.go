package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// drive runs a REPL script and returns the combined output.
func drive(t *testing.T, script string) string {
	t.Helper()
	var b bytes.Buffer
	if err := run(strings.NewReader(script), &b); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, b.String())
	}
	return b.String()
}

func TestSection2Script(t *testing.T) {
	out := drive(t, `
# the paper's scenario
paper
rels
show Children
start kids
corr Children.ID -> Kids.ID
corr Children.name -> Kids.name
corr Parents.affiliation -> Kids.affiliation
ws
accept
walk Children PhoneDir
accept
corr PhoneDir.number -> Kids.contactPh
accept
chase Children.ID 002
ws
filter target Kids.ID IS NOT NULL
ill
eval
sql
quit
`)
	for _, want := range []string{
		"loaded the paper's Figure 1 database",
		"Maya",
		"workspace opened",
		"SBPS",
		"XmasBar",
		"SELECT * FROM (",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "error:") {
		t.Errorf("script produced errors:\n%s", out)
	}
}

func TestHelpAndUnknown(t *testing.T) {
	out := drive(t, "help\nbogus\nquit\n")
	if !strings.Contains(out, "commands:") {
		t.Error("help missing")
	}
	if !strings.Contains(out, `unknown command "bogus"`) {
		t.Errorf("unknown command not reported:\n%s", out)
	}
}

func TestErrorsWithoutState(t *testing.T) {
	out := drive(t, `
rels
show X
start m
target T(a)
start m
corr A.x -> T.a
walk A B
chase A.x 1
ill
sql
eval
accept
ws
use 1
delete 1
filter source TRUE
quit
`)
	// Before any load, most commands report errors rather than crash.
	if c := strings.Count(out, "error:"); c < 5 {
		t.Errorf("expected several errors, got %d:\n%s", c, out)
	}
}

func TestLoadCSVAndTarget(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "People.csv"),
		[]byte("id,name\n1,Ada\n2,Grace\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "Jobs.csv"),
		[]byte("pid,title\n1,engineer\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := drive(t, `
load `+dir+`
mine
target Report(who, job)
start report
corr People.name -> Report.who
corr Jobs.title -> Report.job
eval
quit
`)
	if !strings.Contains(out, "loaded 2 relations") {
		t.Errorf("load failed:\n%s", out)
	}
	if !strings.Contains(out, "Ada") || !strings.Contains(out, "engineer") {
		t.Errorf("mapped view wrong:\n%s", out)
	}
	if strings.Contains(out, "error:") {
		t.Errorf("script produced errors:\n%s", out)
	}
}

func TestBadCommands(t *testing.T) {
	out := drive(t, `
paper
target Bad
target T(a, a)
start m
use notanumber
delete notanumber
show Children notanumber
filter bogus TRUE
corr nonsense
walk onlyone
chase onlyone
quit
`)
	if c := strings.Count(out, "error:"); c < 8 {
		t.Errorf("expected parse errors, got %d:\n%s", c, out)
	}
	if !strings.Contains(out, `repeats attribute "a"`) {
		t.Errorf("a repeated target attribute was not refused:\n%s", out)
	}
}

func TestSchemaCommand(t *testing.T) {
	out := drive(t, "paper\ntarget T(a)\nstart m\nschema\nquit\n")
	if !strings.Contains(out, "join knowledge:") || !strings.Contains(out, "Children.mid = Parents.ID") {
		t.Errorf("schema output wrong:\n%s", out)
	}
}

func TestDiffAndCoverageCommands(t *testing.T) {
	out := drive(t, `
paper
start kids
corr Children.ID -> Kids.ID
corr Parents.affiliation -> Kids.affiliation
ws
diff 3 4
cov
diff 3
diff x y
quit
`)
	if !strings.Contains(out, "structural differences") {
		t.Errorf("diff output missing:\n%s", out)
	}
	if !strings.Contains(out, "coverage categories") {
		t.Errorf("cov output missing:\n%s", out)
	}
	if strings.Count(out, "usage: diff") != 2 {
		t.Errorf("diff usage errors missing:\n%s", out)
	}
}

func TestSaveLoadStatusDot(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "kids.json")
	out := drive(t, `
paper
start kids
corr Children.ID -> Kids.ID
corr Children.name -> Kids.name
status
dot
save `+file+`
quit
`)
	if !strings.Contains(out, "UNMAPPED") || !strings.Contains(out, "mapped by kids") {
		t.Errorf("status missing:\n%s", out)
	}
	if !strings.Contains(out, `graph "kids"`) {
		t.Errorf("dot missing:\n%s", out)
	}
	if !strings.Contains(out, "saved mapping") {
		t.Errorf("save missing:\n%s", out)
	}
	// Reload in a fresh session.
	out2 := drive(t, `
paper
loadmap `+file+`
eval
quit
`)
	if !strings.Contains(out2, `loaded mapping "kids"`) || !strings.Contains(out2, "Maya") {
		t.Errorf("loadmap failed:\n%s", out2)
	}
	// Error paths.
	out3 := drive(t, "paper\nstart kids\nsave\nloadmap\nloadmap /no/such.json\nquit\n")
	if strings.Count(out3, "error:") < 3 {
		t.Errorf("expected save/loadmap errors:\n%s", out3)
	}
}

func TestFocusAndSampleCommands(t *testing.T) {
	out := drive(t, `
paper
start kids
corr Children.ID -> Kids.ID
corr Children.name -> Kids.name
focus Children ID 002
focus Children ID zzz
focus Nope ID 002
focus Children
sample 2
sample x
quit
`)
	if !strings.Contains(out, "Maya") {
		t.Errorf("focus output missing Maya:\n%s", out)
	}
	if !strings.Contains(out, "sampled to at most 2 rows") {
		t.Errorf("sample output missing:\n%s", out)
	}
	if c := strings.Count(out, "error:"); c < 4 {
		t.Errorf("expected focus/sample errors, got %d:\n%s", c, out)
	}
}

func TestUndoCommand(t *testing.T) {
	out := drive(t, `
paper
start kids
corr Children.ID -> Kids.ID
corr Parents.affiliation -> Kids.affiliation
undo
ws
undo
undo
quit
`)
	if !strings.Contains(out, "undone") {
		t.Errorf("undo output missing:\n%s", out)
	}
	// Eventually history empties.
	if !strings.Contains(out, "nothing to undo") {
		t.Errorf("exhausted-history error missing:\n%s", out)
	}
}

func TestImportSQLCommand(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "view.sql")
	sql := `CREATE VIEW MiniKids AS
SELECT Children.ID AS ID, Children.name AS name, Parents.affiliation AS affiliation
FROM Children
LEFT JOIN Parents ON Children.mid = Parents.ID
WHERE Children.ID IS NOT NULL;`
	if err := os.WriteFile(file, []byte(sql), 0o644); err != nil {
		t.Fatal(err)
	}
	out := drive(t, "paper\nimportsql "+file+"\neval\nsql\nquit\n")
	if !strings.Contains(out, `imported mapping "MiniKids"`) {
		t.Errorf("import failed:\n%s", out)
	}
	if !strings.Contains(out, "Maya") || !strings.Contains(out, "Acta") {
		t.Errorf("imported view evaluation wrong:\n%s", out)
	}
	// Error paths.
	out2 := drive(t, "paper\nimportsql\nimportsql /no/such.sql\nquit\n")
	if strings.Count(out2, "error:") < 2 {
		t.Errorf("expected import errors:\n%s", out2)
	}
}

func TestSuggestCommand(t *testing.T) {
	out := drive(t, "paper\nsuggest\nquit\n")
	if !strings.Contains(out, "corr Parents.affiliation -> Kids.affiliation") {
		t.Errorf("suggest output missing affiliation:\n%s", out)
	}
	if !strings.Contains(out, "Kids.ID") {
		t.Errorf("suggest output missing ID:\n%s", out)
	}
	out2 := drive(t, "suggest\nquit\n")
	if !strings.Contains(out2, "error:") {
		t.Errorf("suggest without source should error:\n%s", out2)
	}
}

func TestExplainCommand(t *testing.T) {
	out := drive(t, `
paper
start kids
corr Children.ID -> Kids.ID
corr Parents.affiliation -> Kids.affiliation
explain
quit
`)
	if !strings.Contains(out, "populates Kids") || !strings.Contains(out, "pairs with") {
		t.Errorf("explain output wrong:\n%s", out)
	}
}

func TestReportCommand(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "session.html")
	out := drive(t, `
paper
start kids
corr Children.ID -> Kids.ID
report `+file+`
report
quit
`)
	if !strings.Contains(out, "wrote "+file) {
		t.Errorf("report output missing:\n%s", out)
	}
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<title>Clio session: kids</title>") {
		t.Error("HTML content wrong")
	}
	if !strings.Contains(out, "usage: report") {
		t.Errorf("missing usage error:\n%s", out)
	}
}
