package sqlparse

import (
	"testing"

	"clio/internal/paperdb"
)

// FuzzParseSelect checks the SQL import path on arbitrary statements:
// nothing panics, and whenever a statement parses, ToMapping,
// ToJoinQuery and RequiredCoverage return, and so does ImportMapping on
// the paper instance.
func FuzzParseSelect(f *testing.F) {
	for _, src := range []string{
		`SELECT Children.ID AS ID, Children.name AS name, concat(PhoneDir.type, PhoneDir.number) AS contactPh
		FROM Children
		LEFT JOIN Parents ON Children.mid = Parents.ID
		LEFT OUTER JOIN PhoneDir ON Parents.ID = PhoneDir.ID
		WHERE Children.ID IS NOT NULL;`,
		"SELECT a.b FROM R",
		"select a.b, a.c from R as S inner join T on S.x = T.x",
		"CREATE VIEW V AS SELECT a.b AS x FROM R JOIN S ON R.a = S.a WHERE R.a > 1",
		"SELECT R.x FROM R FULL JOIN S ON R.a = S.a",
		"SELECT R.x FROM R RIGHT JOIN S ON R.a = S.a",
		"SELECT R.a + 1 AS inc FROM R",
		"SELECT concat(R.a, 'FROM x, WHERE y') AS s FROM R",
		"SELECT (( FROM R",
		"SELECT Children.ID FROM Children JOIN Parents ON Children.mid = Parents.ID JOIN Children ON Parents.ID = Children.fid",
		"SELECT R0.v AS a, R1.v AS b FROM R0 JOIN R1 ON R0.k = R1.k LEFT JOIN R2 ON R1.k = R2.k",
	} {
		f.Add(src)
	}
	in := paperdb.Instance()
	f.Fuzz(func(t *testing.T, src string) {
		q, err := ParseSelect(src)
		if err != nil {
			return
		}
		_, _ = ToMapping(q, "")
		_, _ = ToJoinQuery(q)
		_, _ = RequiredCoverage(q)
		_, _ = ImportMapping(src, in, "Kids")
	})
}
