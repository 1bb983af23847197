package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"clio/internal/core"
	"clio/internal/csvio"
	"clio/internal/expr"
	"clio/internal/relation"
	"clio/internal/schema"
	"clio/internal/value"
	"clio/internal/workspace"
)

// replayDirect applies a session script to a workspace.Tool without the
// server and returns the final target view as display rows — the
// reference the served sessions are checked against. Read steps change
// nothing and are skipped.
func replayDirect(in *relation.Instance, target *schema.Relation, mine bool, steps []step) ([][]string, error) {
	ctx := context.Background()
	tool := workspace.New(ctx, in, target, mine)
	if err := tool.Start("kids"); err != nil {
		return nil, err
	}
	for _, s := range steps {
		var err error
		switch s.op {
		case "corr":
			var c core.Correspondence
			if c, err = core.ParseCorrespondence(s.args["spec"].(string)); err == nil {
				err = tool.AddCorrespondence(ctx, c)
			}
		case "walk":
			err = tool.Walk(ctx, s.args["from"].(string), s.args["to"].(string))
		case "chase":
			err = tool.Chase(ctx, s.args["column"].(string), value.Parse(s.args["value"].(string)))
		case "filter":
			var p expr.Expr
			if p, err = expr.Parse(s.args["pred"].(string)); err == nil {
				err = tool.AddTargetFilter(ctx, p)
			}
		case "accept":
			err = tool.Confirm()
		case "undo":
			err = tool.Undo()
		case "rows":
			strs := s.args["values"].([]string)
			vals := make([]value.Value, len(strs))
			for i, v := range strs {
				vals[i] = value.Parse(v)
			}
			del, _ := s.args["delete"].(bool)
			err = tool.ApplyRows(ctx, s.args["relation"].(string), vals, del)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.op, err)
		}
	}
	view, err := tool.TargetView(ctx)
	if err != nil {
		return nil, err
	}
	out := make([][]string, 0, view.Len())
	for _, t := range view.Tuples() {
		row := make([]string, view.Scheme().Arity())
		for i := range row {
			row[i] = fmt.Sprint(t.At(i))
		}
		out = append(out, row)
	}
	return out, nil
}

// replayCSV replays steps on the kids target over the CSV dataset in
// dir, mining inclusion dependencies as the served sessions do.
func replayCSV(dir string, steps []step) ([][]string, error) {
	in, err := csvio.LoadDir(dir)
	if err != nil {
		return nil, err
	}
	return replayDirect(in, kidsTargetRelation(), true, steps)
}

// kidsTargetRelation is kidsTarget as the server parses it: attribute
// names only.
func kidsTargetRelation() *schema.Relation {
	spec := strings.TrimSuffix(strings.TrimPrefix(kidsTarget, "Kids("), ")")
	var attrs []schema.Attribute
	for _, a := range strings.Split(spec, ",") {
		attrs = append(attrs, schema.Attribute{Name: strings.TrimSpace(a)})
	}
	return schema.NewRelation("Kids", attrs...)
}

// viewRows decodes the rows of a view response.
func viewRows(body []byte) ([][]string, error) {
	var v struct {
		Rows [][]string `json:"rows"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, fmt.Errorf("bad view response %.200q: %w", body, err)
	}
	return v.Rows, nil
}

// digestRows hashes a view's rows as a multiset: maintained and
// freshly computed views may list equal rows in different orders.
func digestRows(rows [][]string) string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = strings.Join(r, "\x1f")
	}
	sort.Strings(keys)
	return bodyDigest([]byte(strings.Join(keys, "\x1e")))
}

func rowsDigest(body []byte) (string, error) {
	rows, err := viewRows(body)
	if err != nil {
		return "", err
	}
	return digestRows(rows), nil
}

func bodyDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// sameRows checks a view response against the reference rows.
func sameRows(body []byte, want [][]string) error {
	got, err := viewRows(body)
	if err != nil {
		return err
	}
	if digestRows(got) != digestRows(want) {
		return fmt.Errorf("view has %d rows, the tool's own %d, and they differ", len(got), len(want))
	}
	return nil
}
