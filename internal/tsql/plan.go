package tsql

import (
	"fmt"
	"slices"
	"time"

	"timr/internal/temporal"
)

// Catalog maps stream names to their schemas, the binder's only context.
type Catalog map[string]*temporal.Schema

// Compile parses and binds a StreamSQL query against a catalog, producing
// the same logical plan the fluent builder would (ready for TiMR).
func Compile(src string, cat Catalog) (*temporal.Plan, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return bindQuery(q, cat)
}

func bindQuery(q Query, cat Catalog) (*temporal.Plan, error) {
	switch s := q.(type) {
	case *UnionStmt:
		l, err := bindQuery(s.Left, cat)
		if err != nil {
			return nil, err
		}
		r, err := bindQuery(s.Right, cat)
		if err != nil {
			return nil, err
		}
		if !l.Schema().Equal(r.Schema()) {
			return nil, fmt.Errorf("tsql: UNION schema mismatch: %s vs %s", l.Schema(), r.Schema())
		}
		return l.Union(r), nil
	case *SelectStmt:
		return bindSelect(s, cat)
	default:
		return nil, fmt.Errorf("tsql: unknown query node %T", q)
	}
}

// scope tracks alias → column-name resolution through FROM and JOINs.
type scope struct {
	// aliases maps a source alias to the set of output column names its
	// columns ended up under (right-side join collisions get "r."-
	// prefixed names, mirroring Schema.Concat).
	aliases map[string]map[string]string
	schema  *temporal.Schema
}

func newScope() *scope {
	return &scope{aliases: make(map[string]map[string]string)}
}

// addSource registers a source's columns under its alias.
func (sc *scope) addSource(alias string, schema *temporal.Schema, rename func(string) string) {
	cols := make(map[string]string, schema.Len())
	for i := 0; i < schema.Len(); i++ {
		name := schema.Field(i).Name
		out := name
		if rename != nil {
			out = rename(name)
		}
		cols[name] = out
	}
	if alias != "" {
		sc.aliases[alias] = cols
	}
}

// resolve maps a ColRef to the current schema's column name.
func (sc *scope) resolve(c ColRef) (string, error) {
	if c.Qualifier != "" {
		cols, ok := sc.aliases[c.Qualifier]
		if !ok {
			return "", fmt.Errorf("tsql: unknown alias %q", c.Qualifier)
		}
		out, ok := cols[c.Name]
		if !ok {
			return "", fmt.Errorf("tsql: alias %q has no column %q", c.Qualifier, c.Name)
		}
		return out, nil
	}
	if sc.schema.Has(c.Name) {
		return c.Name, nil
	}
	return "", fmt.Errorf("tsql: unknown column %q in %s", c.Name, sc.schema)
}

func bindSelect(s *SelectStmt, cat Catalog) (*temporal.Plan, error) {
	sc := newScope()

	// ---- FROM ----
	plan, err := bindSource(&s.From, cat)
	if err != nil {
		return nil, err
	}
	if len(s.Partition) > 0 {
		for _, c := range s.Partition {
			if !plan.Schema().Has(c) {
				return nil, fmt.Errorf("tsql: PARTITION BY column %q not in %s", c, plan.Schema())
			}
		}
		plan = plan.Exchange(temporal.PartitionBy{Cols: s.Partition})
	}
	sc.schema = plan.Schema()
	sc.addSource(s.From.Alias, plan.Schema(), nil)

	// ---- JOIN / ANTIJOIN ----
	for i := range s.Joins {
		jc := &s.Joins[i]
		right, err := bindSource(&jc.Src, cat)
		if err != nil {
			return nil, err
		}
		if len(s.Partition) > 0 && !jc.Anti {
			// Explicit partitioning extends to join inputs when the key
			// columns exist there.
			ok := true
			for _, c := range s.Partition {
				if !right.Schema().Has(c) {
					ok = false
				}
			}
			if ok {
				right = right.Exchange(temporal.PartitionBy{Cols: s.Partition})
			}
		}
		// Resolve ON pairs: left refs against the current scope, right
		// refs against the joined source.
		rightScope := newScope()
		rightScope.schema = right.Schema()
		rightScope.addSource(jc.Src.Alias, right.Schema(), nil)
		var lk, rk []string
		for _, pair := range jc.On {
			l, err := resolveSide(sc, rightScope, pair.L, pair.R)
			if err != nil {
				return nil, err
			}
			lk = append(lk, l[0])
			rk = append(rk, l[1])
		}
		leftSchema := plan.Schema()
		if jc.Anti {
			plan = plan.AntiSemiJoin(right, lk, rk)
		} else {
			plan = plan.Join(right, lk, rk, nil)
			// Track how right columns were renamed by the concat.
			sc.addSource(jc.Src.Alias, right.Schema(), func(name string) string {
				if leftSchema.Has(name) {
					return "r." + name
				}
				return name
			})
		}
		sc.schema = plan.Schema()
	}

	// ---- WHERE ----
	if s.Where != nil {
		pred, err := bindExpr(s.Where, sc)
		if err != nil {
			return nil, err
		}
		plan = plan.Where(pred)
	}

	// ---- Grouping / aggregation ----
	var aggs []ProjExpr
	for _, pr := range s.Projs {
		if pr.Agg != "" {
			aggs = append(aggs, pr)
		}
	}
	switch {
	case len(aggs) > 1:
		return nil, fmt.Errorf("tsql: at most one aggregate per SELECT (join two queries to combine counts, as the paper's Figure 13 does)")
	case len(aggs) == 1:
		plan, err = bindAggregate(s, aggs[0], plan, sc)
		if err != nil {
			return nil, err
		}
		sc.schema = plan.Schema()
	case len(s.GroupBy) > 0:
		return nil, fmt.Errorf("tsql: GROUP BY requires an aggregate in the SELECT list")
	default:
		if plan, err = withWindow(plan, s.Window, s.Hop); err != nil {
			return nil, err
		}
		sc.schema = plan.Schema()
	}

	// ---- HAVING ----
	if s.Having != nil {
		if len(aggs) == 0 {
			return nil, fmt.Errorf("tsql: HAVING requires an aggregate")
		}
		pred, err := bindExpr(s.Having, sc)
		if err != nil {
			return nil, err
		}
		plan = plan.Where(pred)
	}

	// ---- Final projection ----
	if s.Star {
		return plan, nil
	}
	return bindProjection(s, plan, sc, len(aggs) > 0)
}

// resolveSide resolves an ON pair where either side may syntactically be
// first: pair.L should belong to the accumulated left scope and pair.R to
// the joined source, but users also write them reversed.
func resolveSide(left, right *scope, a, b ColRef) ([2]string, error) {
	if l, err := left.resolve(a); err == nil {
		if r, err2 := right.resolve(b); err2 == nil {
			return [2]string{l, r}, nil
		}
	}
	if l, err := left.resolve(b); err == nil {
		if r, err2 := right.resolve(a); err2 == nil {
			return [2]string{l, r}, nil
		}
	}
	return [2]string{}, fmt.Errorf("tsql: cannot resolve ON %s = %s", a, b)
}

func bindSource(src *Source, cat Catalog) (*temporal.Plan, error) {
	var plan *temporal.Plan
	if src.Sub != nil {
		sub, err := bindQuery(src.Sub, cat)
		if err != nil {
			return nil, err
		}
		plan = sub
	} else {
		schema, ok := cat[src.Name]
		if !ok {
			return nil, fmt.Errorf("tsql: unknown stream %q", src.Name)
		}
		plan = temporal.Scan(src.Name, schema)
	}
	plan, err := withWindow(plan, src.Window, src.Hop)
	if err != nil {
		return nil, err
	}
	if src.Shift != nil {
		plan = plan.ShiftLifetime(*src.Shift)
	}
	if src.Point {
		plan = plan.ToPoint()
	}
	return plan, nil
}

// withWindow applies a WINDOW w [HOP hop] clause (w nil: none) to plan.
// Width and hop must be positive.
func withWindow(plan *temporal.Plan, w, hop *temporal.Time) (*temporal.Plan, error) {
	switch {
	case w == nil:
		return plan, nil
	case hop == nil && *w > 0:
		return plan.WithWindow(*w), nil
	case hop == nil:
		return nil, fmt.Errorf("tsql: WINDOW %s: width must be positive", ms(*w))
	case *w <= 0 || *hop <= 0:
		return nil, fmt.Errorf("tsql: WINDOW %s HOP %s: width and hop must be positive", ms(*w), ms(*hop))
	}
	return plan.WithHop(*w, *hop), nil
}

// ms renders a duration of ticks (milliseconds) for an error message.
func ms(t temporal.Time) time.Duration { return time.Duration(t) * time.Millisecond }

func bindAggregate(s *SelectStmt, agg ProjExpr, plan *temporal.Plan, sc *scope) (*temporal.Plan, error) {
	name := agg.Alias
	if name == "" {
		name = agg.Agg
	}
	applyAgg := func(g *temporal.Plan) (*temporal.Plan, error) {
		g, err := withWindow(g, s.Window, s.Hop)
		if err != nil {
			return nil, err
		}
		var col string
		if agg.AggCol.Name != "" {
			c, err := sc.resolve(agg.AggCol)
			if err != nil {
				return nil, err
			}
			col = c
		}
		switch agg.Agg {
		case "COUNT":
			return g.Count(name), nil
		case "SUM":
			return g.Sum(col, name), nil
		case "MIN":
			return g.Min(col, name), nil
		case "MAX":
			return g.Max(col, name), nil
		case "AVG":
			return g.Avg(col, name), nil
		}
		return nil, fmt.Errorf("tsql: unknown aggregate %s", agg.Agg)
	}

	if len(s.GroupBy) == 0 {
		return applyAgg(plan)
	}
	keys := make([]string, len(s.GroupBy))
	for i, c := range s.GroupBy {
		col, err := sc.resolve(ColRef{Name: c})
		if err != nil {
			return nil, err
		}
		if slices.Contains(keys[:i], col) || col == name {
			return nil, fmt.Errorf("tsql: duplicate column %q in GROUP BY output", col)
		}
		keys[i] = col
	}
	var bindErr error
	out := plan.GroupApply(keys, func(g *temporal.Plan) *temporal.Plan {
		sub, err := applyAgg(g)
		if err != nil {
			bindErr = err
			return g.Count(name) // placeholder; bindErr aborts below
		}
		return sub
	})
	if bindErr != nil {
		return nil, bindErr
	}
	return out, nil
}

func bindProjection(s *SelectStmt, plan *temporal.Plan, sc *scope, hasAgg bool) (*temporal.Plan, error) {
	schema := plan.Schema()
	var projs []temporal.Projection
	seen := make(map[string]bool, len(s.Projs))
	for _, pr := range s.Projs {
		var col, out string
		if pr.Agg != "" {
			// The aggregate column already carries its output name.
			out = pr.Alias
			if out == "" {
				out = pr.Agg
			}
			if !schema.Has(out) {
				return nil, fmt.Errorf("tsql: internal: aggregate column %q missing from %s", out, schema)
			}
			col = out
		} else {
			var err error
			if col, err = sc.resolve(pr.Col); err != nil {
				if hasAgg && pr.Col.Qualifier == "" && schema.Has(pr.Col.Name) {
					// Group keys keep their names through GroupApply.
					col = pr.Col.Name
				} else {
					return nil, err
				}
			}
			out = pr.Alias
			if out == "" {
				out = pr.Col.Name
			}
		}
		if seen[out] {
			return nil, fmt.Errorf("tsql: duplicate column %q in SELECT list", out)
		}
		seen[out] = true
		projs = append(projs, temporal.Rename(col, out))
	}
	return plan.Project(projs...), nil
}

func bindExpr(e Expr, sc *scope) (temporal.Predicate, error) {
	switch x := e.(type) {
	case *AndExpr:
		l, err := bindExpr(x.L, sc)
		if err != nil {
			return temporal.Predicate{}, err
		}
		r, err := bindExpr(x.R, sc)
		if err != nil {
			return temporal.Predicate{}, err
		}
		return temporal.And(l, r), nil
	case *OrExpr:
		l, err := bindExpr(x.L, sc)
		if err != nil {
			return temporal.Predicate{}, err
		}
		r, err := bindExpr(x.R, sc)
		if err != nil {
			return temporal.Predicate{}, err
		}
		return temporal.Or(l, r), nil
	case *NotExpr:
		inner, err := bindExpr(x.E, sc)
		if err != nil {
			return temporal.Predicate{}, err
		}
		return temporal.Not(inner), nil
	case *CmpExpr:
		return bindCmp(x, sc)
	default:
		return temporal.Predicate{}, fmt.Errorf("tsql: unknown expression %T", e)
	}
}

func bindCmp(c *CmpExpr, sc *scope) (temporal.Predicate, error) {
	col, err := sc.resolve(c.Col)
	if err != nil {
		return temporal.Predicate{}, err
	}
	kind := sc.schema.Field(sc.schema.MustIndex(col)).Kind
	lit := c.Lit
	// Widen int literals against float columns.
	if kind == temporal.KindFloat && lit.Kind == temporal.KindInt {
		lit = Lit{Kind: temporal.KindFloat, F: float64(lit.I)}
	}
	if lit.Kind != kind {
		return temporal.Predicate{}, fmt.Errorf("tsql: comparing %s column %q with %s literal", kind, col, lit.Kind)
	}
	if c.Abs && kind != temporal.KindFloat && kind != temporal.KindInt {
		return temporal.Predicate{}, fmt.Errorf("tsql: ABS over non-numeric column %q", col)
	}
	op, abs, v := c.Op, c.Abs, lit.value()
	desc := fmt.Sprintf("%s %s %s", col, op, v)
	if abs {
		desc = fmt.Sprintf("ABS(%s) %s %s", col, op, v)
	}
	return temporal.FnPred(desc, func(vals []temporal.Value) bool {
		x := vals[0]
		if abs {
			switch x.Kind() {
			case temporal.KindInt:
				if i := x.AsInt(); i < 0 {
					x = temporal.Int(-i)
				}
			case temporal.KindFloat:
				if f := x.AsFloat(); f < 0 {
					x = temporal.Float(-f)
				}
			}
		}
		cmp := x.Compare(v)
		switch op {
		case "=":
			return cmp == 0
		case "!=":
			return cmp != 0
		case "<":
			return cmp < 0
		case "<=":
			return cmp <= 0
		case ">":
			return cmp > 0
		case ">=":
			return cmp >= 0
		}
		return false
	}, col), nil
}
