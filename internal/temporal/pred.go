package temporal

import (
	"fmt"
	"strings"
)

// Predicate is a declarative filter over rows of some schema. Column names
// are resolved to positions at plan-compile time, so the same predicate
// works wherever the named columns exist. Desc is used when rendering
// plans (and when counting "lines of code" for the Fig. 14 comparison).
type Predicate struct {
	Cols []string
	Make func(idx []int) func(Row) bool
	Desc string
}

func (p Predicate) compile(s *Schema) func(Row) bool {
	return p.Make(s.Indexes(p.Cols...))
}

// ColEqInt matches rows whose integer column equals v.
func ColEqInt(col string, v int64) Predicate {
	return Predicate{
		Cols: []string{col},
		Make: func(ix []int) func(Row) bool {
			c := ix[0]
			return func(r Row) bool { return r[c].AsInt() == v }
		},
		Desc: fmt.Sprintf("%s == %d", col, v),
	}
}

// ColGtInt matches rows whose integer column is strictly greater than v.
func ColGtInt(col string, v int64) Predicate {
	return Predicate{
		Cols: []string{col},
		Make: func(ix []int) func(Row) bool {
			c := ix[0]
			return func(r Row) bool { return r[c].AsInt() > v }
		},
		Desc: fmt.Sprintf("%s > %d", col, v),
	}
}

// AbsGeFloat matches rows where |column| >= v (used for z-score thresholds).
func AbsGeFloat(col string, v float64) Predicate {
	return Predicate{
		Cols: []string{col},
		Make: func(ix []int) func(Row) bool {
			c := ix[0]
			return func(r Row) bool {
				f := r[c].AsFloat()
				if f < 0 {
					f = -f
				}
				return f >= v
			}
		},
		Desc: fmt.Sprintf("|%s| >= %g", col, v),
	}
}

// FnPred wraps an arbitrary row function over the named columns. The
// function receives the values of cols in order. vals is valid only during
// the call: each compiled predicate reuses one argument slice (an engine
// is single-threaded), so fn must not keep it.
func FnPred(desc string, fn func(vals []Value) bool, cols ...string) Predicate {
	return Predicate{
		Cols: cols,
		Make: func(ix []int) func(Row) bool {
			vals := make([]Value, len(ix))
			return func(r Row) bool { return fn(gather(vals, r, ix)) }
		},
		Desc: desc,
	}
}

// gather fills vals with r's columns at ix.
func gather(vals []Value, r Row, ix []int) []Value {
	for i, c := range ix {
		vals[i] = r[c]
	}
	return vals
}

// And combines predicates conjunctively.
func And(ps ...Predicate) Predicate {
	cols := []string{}
	descs := make([]string, len(ps))
	for i, p := range ps {
		cols = append(cols, p.Cols...)
		descs[i] = p.Desc
	}
	return Predicate{
		Cols: cols,
		Make: func(ix []int) func(Row) bool {
			fns := make([]func(Row) bool, len(ps))
			off := 0
			for i, p := range ps {
				fns[i] = p.Make(ix[off : off+len(p.Cols)])
				off += len(p.Cols)
			}
			return func(r Row) bool {
				for _, f := range fns {
					if !f(r) {
						return false
					}
				}
				return true
			}
		},
		Desc: "(" + strings.Join(descs, " AND ") + ")",
	}
}

// Or combines predicates disjunctively.
func Or(ps ...Predicate) Predicate {
	cols := []string{}
	descs := make([]string, len(ps))
	for i, p := range ps {
		cols = append(cols, p.Cols...)
		descs[i] = p.Desc
	}
	return Predicate{
		Cols: cols,
		Make: func(ix []int) func(Row) bool {
			fns := make([]func(Row) bool, len(ps))
			off := 0
			for i, p := range ps {
				fns[i] = p.Make(ix[off : off+len(p.Cols)])
				off += len(p.Cols)
			}
			return func(r Row) bool {
				for _, f := range fns {
					if f(r) {
						return true
					}
				}
				return false
			}
		},
		Desc: "(" + strings.Join(descs, " OR ") + ")",
	}
}

// Not negates a predicate.
func Not(p Predicate) Predicate {
	return Predicate{
		Cols: p.Cols,
		Make: func(ix []int) func(Row) bool {
			f := p.Make(ix)
			return func(r Row) bool { return !f(r) }
		},
		Desc: "NOT " + p.Desc,
	}
}

// Projection is one output column of a Project operator: either a direct
// copy/rename of a source column (Source != ""), which preserves
// partitioning lineage for the optimizer, or a computed expression.
type Projection struct {
	Name   string
	Kind   Kind
	Source string // direct copy of this input column if non-empty

	// Computed projection: Make receives positions of Cols.
	Cols []string
	Make func(idx []int) func(Row) Value
	Desc string
}

// Keep projects an input column unchanged.
func Keep(col string) Projection { return Projection{Name: col, Source: col} }

// Rename projects an input column under a new name.
func Rename(col, as string) Projection { return Projection{Name: as, Source: col} }

// ConstInt projects a constant integer column.
func ConstInt(name string, v int64) Projection {
	return Projection{
		Name: name, Kind: KindInt,
		Make: func([]int) func(Row) Value { return func(Row) Value { return Int(v) } },
		Desc: fmt.Sprintf("%d", v),
	}
}

// Compute projects a computed column over the named inputs. fn receives the
// values of cols in order. As with FnPred, vals is valid only during the
// call: each compiled projection reuses one argument slice.
func Compute(name string, kind Kind, fn func(vals []Value) Value, cols ...string) Projection {
	return Projection{
		Name: name, Kind: kind, Cols: cols,
		Make: func(ix []int) func(Row) Value {
			vals := make([]Value, len(ix))
			return func(r Row) Value { return fn(gather(vals, r, ix)) }
		},
		Desc: "fn(" + strings.Join(cols, ",") + ")",
	}
}

// JoinPred is an optional residual predicate over a pair of joined rows,
// evaluated after the equality keys match (e.g. "left.power <
// right.power+100" from the paper's Figure 4).
type JoinPred struct {
	LeftCols, RightCols []string
	Make                func(li, ri []int) func(l, r Row) bool
	Desc                string
}
