package workspace

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"unicode/utf8"
)

// FuzzReadJournal checks the journal decoder. A file of arbitrary bytes
// never makes ReadJournal panic; a record built from the fuzzed fields
// that marshalLine writes reads back as the same record; and the same
// line with a wrong CRC counts as one corrupt line and no record.
func FuzzReadJournal(f *testing.F) {
	seeds := []JournalRecord{
		{Kind: "op", Op: "corr", Args: json.RawMessage(`{"spec":"Children.ID -> Kids.ID"}`)},
		{Kind: "op", Op: "rows", Args: json.RawMessage(`{"rel":"Children","values":["011","Lea","8","104","","d3"],"delete":true}`)},
		{Kind: "snapshot", Args: json.RawMessage(`{"workspaces":[],"active":-1}`)},
		{Kind: "op", Op: "undo"},
	}
	for _, rec := range seeds {
		line, err := marshalLine(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line, rec.Kind, rec.Op, string(rec.Args))
	}
	f.Add([]byte("{\"crc\":1,\"rec\":{}}\n\n{torn"), "op", "walk", "")
	f.Fuzz(func(t *testing.T, data []byte, kind, op, args string) {
		dir := t.TempDir()
		write := func(name string, b []byte) string {
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			return path
		}
		if _, _, err := ReadJournal(write("raw.jsonl", data)); err != nil {
			t.Fatalf("ReadJournal of %d bytes: %v", len(data), err)
		}

		if !utf8.ValidString(kind) || !utf8.ValidString(op) {
			// Kinds and ops are identifiers the server writes; JSON
			// would replace an invalid byte in them with U+FFFD.
			return
		}
		rec := JournalRecord{Kind: kind, Op: op}
		if args != "" {
			rec.Args = json.RawMessage(args)
		}
		line, err := marshalLine(rec)
		if err != nil {
			return // args is not JSON: nothing to write
		}
		recs, corrupt, err := ReadJournal(write("good.jsonl", line))
		if err != nil || corrupt != 0 || len(recs) != 1 {
			t.Fatalf("written line read back as %d records, %d corrupt, err %v:\n%s", len(recs), corrupt, err, line)
		}
		again, err := marshalLine(recs[0])
		if err != nil || !bytes.Equal(again, line) || recs[0].Kind != kind || recs[0].Op != op {
			t.Fatalf("record changed on a round trip (err %v):\n%s%s", err, line, again)
		}

		var framed journalLine
		if err := json.Unmarshal(line, &framed); err != nil {
			t.Fatal(err)
		}
		framed.CRC++
		bad, err := json.Marshal(framed)
		if err != nil {
			t.Fatal(err)
		}
		recs, corrupt, err = ReadJournal(write("bad.jsonl", append(bad, '\n')))
		if err != nil || corrupt != 1 || len(recs) != 0 {
			t.Fatalf("line with CRC %s read as %d records, %d corrupt, err %v", strconv.FormatUint(uint64(framed.CRC), 10), len(recs), corrupt, err)
		}
	})
}
