package temporal

import (
	"fmt"
	"strings"
)

// OpKind enumerates logical CQ-plan operators (paper §II-A.2).
type OpKind int

// Logical operator kinds.
const (
	OpScan       OpKind = iota // leaf: named input stream
	OpGroupInput               // leaf inside a GroupApply sub-plan: the group's sub-stream
	OpSelect
	OpProject
	OpAlterLifetime
	OpAggregate
	OpGroupApply
	OpUnion
	OpTemporalJoin
	OpAntiSemiJoin
	OpUDO
	OpExchange // logical repartitioning annotation inserted by TiMR (§III-A.2)
)

// String names the operator kind.
func (k OpKind) String() string {
	names := [...]string{"Scan", "GroupInput", "Select", "Project", "AlterLifetime",
		"Aggregate", "GroupApply", "Union", "TemporalJoin", "AntiSemiJoin", "UDO", "Exchange"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("Op(%d)", int(k))
}

// LifetimeMode selects the AlterLifetime variant.
type LifetimeMode int

// AlterLifetime variants.
const (
	// LifeWindow sets RE = LE + Window: a sliding window of width Window.
	LifeWindow LifetimeMode = iota
	// LifeHop snaps events into hopping windows of width Window and hop
	// Hop: an event at time s contributes to every window ending at a
	// multiple of Hop in (s, s+Window], and each window's result is valid
	// for one hop. Implemented as LE' = Hop*floor(s/Hop)+Hop,
	// RE' = Hop*floor((s+Window)/Hop)+Hop.
	LifeHop
	// LifeShift translates the lifetime by Shift (possibly negative), as
	// in the paper's non-click detection where click lifetimes are moved
	// d = 5 minutes into the past.
	LifeShift
	// LifePoint truncates events to points: RE = LE + Tick.
	LifePoint
)

// AggKind enumerates snapshot aggregates.
type AggKind int

// Aggregate kinds.
const (
	AggCount AggKind = iota
	AggSum
	AggMin
	AggMax
	AggAvg
)

// String names the aggregate.
func (k AggKind) String() string {
	names := [...]string{"Count", "Sum", "Min", "Max", "Avg"}
	if k >= 0 && int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("Agg(%d)", int(k))
}

// UDOSpec configures a user-defined operator over hopping windows
// (paper §II-A.2 "User-Defined Operators"; used for LR model fitting).
// For each window [end-Window, end) at hop boundaries, Fn receives the
// payload rows with LE inside the window, ordered by LE, and returns
// output rows valid for [end, end+Hop).
type UDOSpec struct {
	Name   string
	Window Time
	Hop    Time
	Out    *Schema
	Fn     func(winStart, winEnd Time, rows []Row) []Row
}

// PartitionBy describes a logical exchange: repartition the stream by a
// set of payload columns, or by time spans (temporal partitioning, §III-B).
type PartitionBy struct {
	Cols     []string
	Temporal bool
	// SpanWidth is the output span width s for temporal partitioning
	// (zero: the runtime sizes spans itself); the overlap is derived from
	// the fragment's maximum window size.
	SpanWidth Time
}

func (p PartitionBy) String() string {
	if p.Temporal {
		return fmt.Sprintf("time(span=%d)", p.SpanWidth)
	}
	return "{" + strings.Join(p.Cols, ",") + "}"
}

// Plan is a node of a logical CQ plan. Plans form DAGs: a node may be the
// child of several parents, which compiles to a physical Multicast. All
// fields are exported so that TiMR (internal/core) can annotate, fragment
// and optimize plans.
type Plan struct {
	Kind   OpKind
	Inputs []*Plan
	Out    *Schema

	// OpScan
	Source string

	// OpSelect
	Pred Predicate

	// OpProject
	Projs []Projection

	// OpAlterLifetime
	Mode        LifetimeMode
	Window, Hop Time
	Shift       Time

	// OpAggregate
	Agg     AggKind
	AggCol  string // input column ("" for Count)
	AggName string // output column name

	// OpGroupApply / OpTemporalJoin / OpAntiSemiJoin
	Keys      []string // group keys; join keys on the left input
	RightKeys []string // join keys on the right input
	JoinCond  *JoinPred
	Sub       *Plan // GroupApply sub-plan rooted at an OpGroupInput leaf

	// OpUDO
	UDO *UDOSpec

	// OpExchange
	Part PartitionBy
}

// Schema returns the node's output schema.
func (p *Plan) Schema() *Schema { return p.Out }

// Scan starts a plan from a named source stream with the given schema.
func Scan(source string, schema *Schema) *Plan {
	return &Plan{Kind: OpScan, Source: source, Out: schema}
}

// GroupInput is the leaf of a GroupApply sub-plan. Application code
// receives it from the GroupApply builder; it is exported for the
// optimizer's benefit.
func GroupInput(schema *Schema) *Plan {
	return &Plan{Kind: OpGroupInput, Out: schema}
}

// Where appends a Select operator.
func (p *Plan) Where(pred Predicate) *Plan {
	pred.compile(p.Out) // validate column names eagerly
	return &Plan{Kind: OpSelect, Inputs: []*Plan{p}, Out: p.Out, Pred: pred}
}

// Project appends a projection; the output schema is derived from the
// projection list.
func (p *Plan) Project(projs ...Projection) *Plan {
	fields := make([]Field, len(projs))
	for i, pr := range projs {
		if pr.Source != "" {
			src := p.Out.Field(p.Out.MustIndex(pr.Source))
			fields[i] = Field{Name: pr.Name, Kind: src.Kind}
		} else {
			p.Out.Indexes(pr.Cols...) // validate
			fields[i] = Field{Name: pr.Name, Kind: pr.Kind}
		}
	}
	return &Plan{Kind: OpProject, Inputs: []*Plan{p}, Out: NewSchema(fields...), Projs: projs}
}

// WithWindow appends AlterLifetime RE = LE + w (sliding window).
func (p *Plan) WithWindow(w Time) *Plan {
	return &Plan{Kind: OpAlterLifetime, Inputs: []*Plan{p}, Out: p.Out, Mode: LifeWindow, Window: w}
}

// WithHop appends a hopping window of width w and hop h.
func (p *Plan) WithHop(w, h Time) *Plan {
	if h <= 0 || w <= 0 {
		panic("temporal: hopping window requires positive width and hop")
	}
	return &Plan{Kind: OpAlterLifetime, Inputs: []*Plan{p}, Out: p.Out, Mode: LifeHop, Window: w, Hop: h}
}

// ShiftLifetime appends AlterLifetime LE += d, RE += d.
func (p *Plan) ShiftLifetime(d Time) *Plan {
	return &Plan{Kind: OpAlterLifetime, Inputs: []*Plan{p}, Out: p.Out, Mode: LifeShift, Shift: d}
}

// ToPoint truncates lifetimes to points.
func (p *Plan) ToPoint() *Plan {
	return &Plan{Kind: OpAlterLifetime, Inputs: []*Plan{p}, Out: p.Out, Mode: LifePoint}
}

func (p *Plan) aggregate(kind AggKind, col, as string) *Plan {
	outKind := KindInt
	switch kind {
	case AggAvg:
		outKind = KindFloat
	case AggSum, AggMin, AggMax:
		outKind = p.Out.Field(p.Out.MustIndex(col)).Kind
	}
	return &Plan{
		Kind: OpAggregate, Inputs: []*Plan{p},
		Out: NewSchema(Field{Name: as, Kind: outKind}),
		Agg: kind, AggCol: col, AggName: as,
	}
}

// Count appends a snapshot Count aggregate; the output stream has a single
// column named as, carrying the count over each snapshot.
func (p *Plan) Count(as string) *Plan { return p.aggregate(AggCount, "", as) }

// Sum appends a snapshot Sum over col.
func (p *Plan) Sum(col, as string) *Plan { return p.aggregate(AggSum, col, as) }

// Min appends a snapshot Min over col.
func (p *Plan) Min(col, as string) *Plan { return p.aggregate(AggMin, col, as) }

// Max appends a snapshot Max over col.
func (p *Plan) Max(col, as string) *Plan { return p.aggregate(AggMax, col, as) }

// Avg appends a snapshot Avg over col.
func (p *Plan) Avg(col, as string) *Plan { return p.aggregate(AggAvg, col, as) }

// GroupApply groups the stream by keys and applies the sub-plan built by
// sub to each group's sub-stream (paper Figure 4). The output schema is
// the group keys followed by the sub-plan's output columns.
func (p *Plan) GroupApply(keys []string, sub func(group *Plan) *Plan) *Plan {
	p.Out.Indexes(keys...) // validate
	in := GroupInput(p.Out)
	subPlan := sub(in)
	fields := make([]Field, 0, len(keys)+subPlan.Out.Len())
	for _, k := range keys {
		fields = append(fields, p.Out.Field(p.Out.MustIndex(k)))
	}
	fields = append(fields, subPlan.Out.Fields()...)
	return &Plan{
		Kind: OpGroupApply, Inputs: []*Plan{p},
		Out:  NewSchema(fields...),
		Keys: append([]string(nil), keys...), Sub: subPlan,
	}
}

// Union merges two streams with identical schemas.
func (p *Plan) Union(o *Plan) *Plan {
	if !p.Out.Equal(o.Out) {
		panic(fmt.Sprintf("temporal: Union schema mismatch %s vs %s", p.Out, o.Out))
	}
	return &Plan{Kind: OpUnion, Inputs: []*Plan{p, o}, Out: p.Out}
}

// Join appends a TemporalJoin with equality keys and an optional residual
// condition. Output lifetime is the intersection of the joined lifetimes;
// the output schema is left ++ right (right collisions prefixed "r.").
func (p *Plan) Join(right *Plan, leftKeys, rightKeys []string, cond *JoinPred) *Plan {
	if len(leftKeys) != len(rightKeys) {
		panic("temporal: Join key arity mismatch")
	}
	p.Out.Indexes(leftKeys...)
	right.Out.Indexes(rightKeys...)
	return &Plan{
		Kind: OpTemporalJoin, Inputs: []*Plan{p, right},
		Out:  p.Out.Concat(right.Out, "r."),
		Keys: append([]string(nil), leftKeys...), RightKeys: append([]string(nil), rightKeys...),
		JoinCond: cond,
	}
}

// AntiSemiJoin emits left point events that do NOT intersect any matching
// right event (paper §II-A.2). The left input must consist of point
// events; the right input may carry arbitrary lifetimes. At equal
// timestamps the right side is applied first, so an interval opening at t
// suppresses a left event at t.
func (p *Plan) AntiSemiJoin(right *Plan, leftKeys, rightKeys []string) *Plan {
	if len(leftKeys) != len(rightKeys) {
		panic("temporal: AntiSemiJoin key arity mismatch")
	}
	p.Out.Indexes(leftKeys...)
	right.Out.Indexes(rightKeys...)
	return &Plan{
		Kind: OpAntiSemiJoin, Inputs: []*Plan{p, right},
		Out:  p.Out,
		Keys: append([]string(nil), leftKeys...), RightKeys: append([]string(nil), rightKeys...),
	}
}

// Apply appends a user-defined hopping-window operator.
func (p *Plan) Apply(spec UDOSpec) *Plan {
	if spec.Window <= 0 || spec.Hop <= 0 {
		panic("temporal: UDO requires positive window and hop")
	}
	s := spec
	return &Plan{Kind: OpUDO, Inputs: []*Plan{p}, Out: s.Out, UDO: &s}
}

// Exchange inserts a logical repartitioning annotation. TiMR's annotation
// step (and optimizer) adds these; they are no-ops for single-node
// execution.
func (p *Plan) Exchange(part PartitionBy) *Plan {
	if !part.Temporal {
		p.Out.Indexes(part.Cols...)
	}
	return &Plan{Kind: OpExchange, Inputs: []*Plan{p}, Out: p.Out, Part: part}
}

// Walk visits the plan DAG in depth-first order, visiting shared nodes
// once. GroupApply sub-plans are visited too.
func (p *Plan) Walk(visit func(*Plan)) {
	seen := make(map[*Plan]bool)
	var rec func(n *Plan)
	rec = func(n *Plan) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		visit(n)
		for _, c := range n.Inputs {
			rec(c)
		}
		if n.Sub != nil {
			rec(n.Sub)
		}
	}
	rec(p)
}

// MaxWindow returns a conservative bound on the plan's temporal extent:
// the sum of every window/shift/hop extent anywhere in the plan
// (including sub-plans). Chained windows compose additively along a path,
// so summing over the whole plan is a safe over-estimate. TiMR's temporal
// partitioning uses this as the span overlap w (§III-B), and GroupApply
// uses it as the state-quiescence horizon.
func (p *Plan) MaxWindow() Time {
	var sum Time
	p.Walk(func(n *Plan) {
		var w Time
		switch n.Kind {
		case OpAlterLifetime:
			switch n.Mode {
			case LifeWindow:
				w = n.Window
			case LifeHop:
				// Hop snapping can extend an event's lifetime up to one
				// hop beyond its window.
				w = n.Window + n.Hop
			case LifeShift:
				w = n.Shift
				if w < 0 {
					w = -w
				}
			}
		case OpUDO:
			w = n.UDO.Window + n.UDO.Hop
		}
		sum += w
	})
	return sum
}

// String renders the plan as an indented tree for diagnostics.
func (p *Plan) String() string {
	var b strings.Builder
	var rec func(n *Plan, indent string)
	rec = func(n *Plan, indent string) {
		b.WriteString(indent)
		b.WriteString(n.Kind.String())
		switch n.Kind {
		case OpScan:
			fmt.Fprintf(&b, "(%s)", n.Source)
		case OpSelect:
			fmt.Fprintf(&b, "[%s]", n.Pred.Desc)
		case OpAlterLifetime:
			switch n.Mode {
			case LifeWindow:
				fmt.Fprintf(&b, "[w=%d]", n.Window)
			case LifeHop:
				fmt.Fprintf(&b, "[w=%d,h=%d]", n.Window, n.Hop)
			case LifeShift:
				fmt.Fprintf(&b, "[shift=%d]", n.Shift)
			case LifePoint:
				b.WriteString("[point]")
			}
		case OpAggregate:
			fmt.Fprintf(&b, "[%s(%s) as %s]", n.Agg, n.AggCol, n.AggName)
		case OpGroupApply, OpTemporalJoin, OpAntiSemiJoin:
			fmt.Fprintf(&b, "[%s]", strings.Join(n.Keys, ","))
		case OpUDO:
			fmt.Fprintf(&b, "[%s w=%d h=%d]", n.UDO.Name, n.UDO.Window, n.UDO.Hop)
		case OpExchange:
			fmt.Fprintf(&b, "[%s]", n.Part)
		}
		b.WriteByte('\n')
		for _, c := range n.Inputs {
			rec(c, indent+"  ")
		}
		if n.Sub != nil {
			b.WriteString(indent + "  sub:\n")
			rec(n.Sub, indent+"    ")
		}
	}
	rec(p, "")
	return b.String()
}
