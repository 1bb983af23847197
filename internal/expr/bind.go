package expr

import (
	"clio/internal/relation"
	"clio/internal/value"
)

// Bind returns e with every column reference resolved against scheme
// s once: on a tuple over s (the same *Scheme) a bound column reads
// its value by position, and on a tuple of any other scheme it falls
// back to lookup by name, so the bound expression evaluates exactly
// like e on every tuple. Columns missing from s stay unbound. The
// result renders and reports columns like e; it is meant for loops
// that evaluate one expression over many tuples of one relation.
func Bind(e Expr, s *relation.Scheme) Expr {
	switch n := e.(type) {
	case Col:
		if p := s.Index(n.Name); p >= 0 {
			return boundCol{Col: n, scheme: s, pos: p}
		}
		return n
	case Bin:
		return Bin{Op: n.Op, L: Bind(n.L, s), R: Bind(n.R, s)}
	case Not:
		return Not{E: Bind(n.E, s)}
	case IsNull:
		return IsNull{E: Bind(n.E, s), Negate: n.Negate}
	case Call:
		return Call{Name: n.Name, Args: bindAll(n.Args, s)}
	case In:
		return In{E: Bind(n.E, s), List: bindAll(n.List, s), Negate: n.Negate}
	case Between:
		return Between{E: Bind(n.E, s), Lo: Bind(n.Lo, s), Hi: Bind(n.Hi, s), Negate: n.Negate}
	case Like:
		return Like{E: Bind(n.E, s), Pattern: n.Pattern, Negate: n.Negate}
	default:
		return e
	}
}

func bindAll(es []Expr, s *relation.Scheme) []Expr {
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = Bind(e, s)
	}
	return out
}

// boundCol is a column resolved to a position of one scheme. Columns
// and String come from the embedded Col.
type boundCol struct {
	Col
	scheme *relation.Scheme
	pos    int
}

// Eval reads the bound position on a tuple over the bound scheme and
// looks the column up by name otherwise.
func (c boundCol) Eval(t relation.Tuple) value.Value {
	if t.Scheme() == c.scheme {
		return t.At(c.pos)
	}
	return c.Col.Eval(t)
}
