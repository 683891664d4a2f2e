package temporal

import (
	"cmp"
	"fmt"
	"slices"

	"timr/internal/obs"
)

// compile builds e's operators for several roots: roots[i]'s events and
// punctuation go to outs[i], and a node the roots share is built once.
// Plans may be DAGs; shared nodes become physical multicasts, and maximal
// runs of stateless operators become single kernels (op_fused.go). It
// sets e's source entries and checkpoint list. Under a non-nil scope
// every operator reports events in/out, propagated CTIs, live state size
// and watermark lag into a child of scope named "opNN.Kind" (NN =
// pre-order DFS position over the roots in order; see opName), and each
// source reports fed events/CTIs under "source.<name>" (op_meter.go). The
// operators built, their wiring and the checkpoint layout are the same
// either way.
func (e *Engine) compile(roots []*Plan, outs []Sink, scope *obs.Scope) error {
	for _, root := range roots {
		if err := checkPlan(root, false); err != nil {
			return err
		}
	}
	c := &compiler{
		parents: make(map[*Plan][]parentRef),
		ops:     make(map[*Plan][]Sink),
		insts:   make(map[*Plan]any),
		outs:    make(map[*Plan][]Sink),
		obs:     scope,
	}
	seen := make(map[*Plan]bool)
	for i, root := range roots {
		c.outs[root] = append(c.outs[root], outs[i])
		c.collectParents(root, seen)
	}
	if scope != nil {
		// Operator ids come from a deterministic pre-order walk, not from
		// build order (map iteration below is randomized).
		c.ids = make(map[*Plan]int)
		walkInputs(func(n *Plan) { c.ids[n] = len(c.ids) }, roots...)
	}
	e.inputs = make(map[string]Sink)
	c.auto = &e.auto
	// Group scan leaves by source: one feed may supply several leaves.
	// Only this plan's own DAG is walked; a GroupApply sub-plan's leaf is
	// its group input (lowerGroupApply).
	bySource := make(map[string][]*Plan)
	walkInputs(func(n *Plan) {
		if n.Kind == OpScan {
			bySource[n.Source] = append(bySource[n.Source], n)
		}
	}, roots...)
	if len(bySource) == 0 {
		return fmt.Errorf("temporal: plan has no scan leaves")
	}
	for source, leaves := range bySource {
		sinks := make([]Sink, len(leaves))
		for i, leaf := range leaves {
			sinks[i] = c.outputSink(leaf)
			if !leaf.Out.Equal(leaves[0].Out) {
				return fmt.Errorf("temporal: source %s scanned with conflicting schemas", source)
			}
		}
		in := fanOut(sinks)
		if scope != nil {
			sc := scope.Child("source." + source)
			m := &opMetrics{out: sc.Counter("events").Tally(), ctis: sc.Counter("ctis").Tally()}
			c.meters = append(c.meters, m)
			in = &meterOut{events: &m.out, ctis: &m.ctis, out: in}
		}
		e.inputs[source] = in
		e.sources = append(e.sources, source)
	}
	slices.Sort(e.sources)
	e.meters = c.meters
	// Collect stateful operators in pre-order DFS plan order (build order
	// above follows randomized map iteration and cannot be used).
	walkInputs(func(n *Plan) {
		if ck, ok := c.insts[n].(Checkpointer); ok {
			e.ckpts = append(e.ckpts, ck)
		}
	}, roots...)
	return nil
}

type parentRef struct {
	node *Plan
	idx  int
}

type compiler struct {
	parents map[*Plan][]parentRef
	ops     map[*Plan][]Sink // node -> entry sink per input position
	insts   map[*Plan]any    // node -> physical operator instance
	outs    map[*Plan][]Sink // root -> the caller's sink(s) for its output
	obs     *obs.Scope       // nil = no instrumentation
	ids     map[*Plan]int    // deterministic operator ids (obs only)
	meters  []*opMetrics     // every meter built, for Engine.fold
	auto    *bool            // Engine.auto
}

func (c *compiler) collectParents(n *Plan, seen map[*Plan]bool) {
	if seen[n] {
		return
	}
	seen[n] = true
	for i, in := range n.Inputs {
		c.parents[in] = append(c.parents[in], parentRef{node: n, idx: i})
		c.collectParents(in, seen)
	}
	// Sub-plans are lowered by their GroupApply (lowerGroupApply); they are
	// not visited here.
}

// checkPlan rejects a GroupInput leaf outside a GroupApply sub-plan, a
// Scan inside one, and an Aggregate of no known kind.
func checkPlan(root *Plan, sub bool) (err error) {
	walkInputs(func(n *Plan) {
		switch {
		case err != nil:
		case n.Kind == OpGroupInput && !sub:
			err = fmt.Errorf("temporal: GroupInput leaf outside a GroupApply sub-plan")
		case n.Kind == OpScan && sub:
			err = fmt.Errorf("temporal: Scan(%s) leaf inside a GroupApply sub-plan", n.Source)
		case n.Kind == OpAggregate:
			_, err = aggStateOf(n)
		case n.Sub != nil:
			err = checkPlan(n.Sub, true)
		}
	}, root)
	return err
}

// outputSink returns the sink that consumes node n's output stream.
func (c *compiler) outputSink(n *Plan) Sink {
	sinks := slices.Clone(c.outs[n])
	for _, p := range c.parents[n] {
		sinks = append(sinks, c.inputSink(p.node, p.idx))
	}
	if len(sinks) == 0 {
		panic("temporal: orphan plan node " + n.Kind.String())
	}
	return fanOut(sinks)
}

func fanOut(sinks []Sink) Sink {
	if len(sinks) == 1 {
		return sinks[0]
	}
	return &multicast{outs: sinks}
}

// inputSink returns the entry sink for the idx-th input of node n,
// building n's physical operator on first use.
func (c *compiler) inputSink(n *Plan, idx int) Sink {
	entries, ok := c.ops[n]
	if !ok {
		entries = c.build(n)
		c.ops[n] = entries
	}
	return entries[idx]
}

// build constructs the physical operator for n, wired to n's downstream,
// and returns the entry sink(s) for its input position(s).
func (c *compiler) build(n *Plan) []Sink {
	if fusable(n) {
		return c.buildKernel(n)
	}
	var proj *Plan // join n's sole consumer if a Project of picks: never built, the join writes its rows
	if ps := c.parents[n]; n.Kind == OpTemporalJoin && c.outs[n] == nil && len(ps) == 1 && pickOnly(ps[0].node) {
		proj = ps[0].node
	}
	out := c.outputSink(cmp.Or(proj, n))
	if n.Kind == OpExchange {
		// Logical annotation only; a single-node pipeline passes through,
		// and metering it would double-count its input's events.
		return []Sink{out}
	}
	var m *opMetrics
	if c.obs != nil {
		if proj != nil { // it reports under its own scope: in and out, the join's output
			pm := c.meter(proj)
			out = &meterIn{m: pm, out: &meterOut{events: &pm.out, ctis: &pm.ctis, out: out}}
		}
		m = c.meter(n)
		out = &meterOut{events: &m.out, ctis: &m.ctis, out: out}
	}
	entries, op := c.buildOp(n, proj, out)
	c.insts[n] = op
	if m != nil {
		m.observe(op)
		for i := range entries {
			entries[i] = &meterIn{m: m, out: entries[i]}
		}
	}
	return entries
}

// meter builds node n's meters under its "opNN.Kind" scope.
func (c *compiler) meter(n *Plan) *opMetrics {
	m := newOpMetrics(c.obs.Child(c.opName(n)))
	c.meters = append(c.meters, m)
	return m
}

// fusable reports whether n is a member of a stateless kernel. ToPoint is
// not: its continuation-suppression table makes it stateful, so it is its
// own operator and breaks runs around it. OpExchange breaks runs too — it
// marks a distribution boundary.
func fusable(n *Plan) bool {
	switch n.Kind {
	case OpSelect, OpProject:
		return true
	case OpAlterLifetime:
		return n.Mode != LifePoint
	}
	return false
}

// pickOnly reports whether n is a Project of column picks (Keep, Rename).
func pickOnly(n *Plan) bool {
	return n.Kind == OpProject && !slices.ContainsFunc(n.Projs, func(pr Projection) bool { return pr.Source == "" })
}

// buildKernel compiles the maximal stateless run headed at n — n, then
// each sole consumer downstream while it is also fusable — into one
// kernel wired to the run's downstream. Demand-driven build order
// guarantees mid-run members are never built separately: their only
// producer is inside the kernel, so no other node ever asks for their
// entry sink. Each lifetime-transform member registers the (empty)
// checkpoint section the snapshot layout gives its plan node.
func (c *compiler) buildKernel(n *Plan) []Sink {
	run := []*Plan{n}
	for tail := n; c.outs[tail] == nil && len(c.parents[tail]) == 1 && fusable(c.parents[tail][0].node); {
		tail = c.parents[tail][0].node
		run = append(run, tail)
	}
	f := newFusedOp(run, 0, c.outputSink(run[len(run)-1]))
	if c.obs != nil {
		f.m = &kernelMeter{ops: make([]*opMetrics, len(run))}
	}
	for i, m := range run {
		if m.Kind == OpAlterLifetime {
			c.insts[m] = alterSection{}
		}
		if f.m != nil {
			f.m.ops[i] = c.meter(m)
		}
	}
	return []Sink{f}
}

// buildOp constructs the physical operator itself (a join writes proj's
// rows if set), returning its entry sinks and the instance (for state size).
func (c *compiler) buildOp(n, proj *Plan, out Sink) ([]Sink, any) {
	switch n.Kind {
	case OpAlterLifetime: // ToPoint; the other modes are kernel members
		a := &alterLifetimeOp{out: out}
		return []Sink{a}, a
	case OpAggregate: // the grouped kernel with no key: one slot
		a := newGroupedAggOp(&lowering{}, keying{}, nil, n, nil, out)
		return []Sink{a}, a
	case OpGroupApply:
		entry, ops := c.lowerGroupApply(n, out)
		if len(ops.ops) == 0 { // stateless throughout: no checkpoint section
			return []Sink{entry}, nil
		}
		return []Sink{entry}, ops
	case OpUnion:
		u := newUnionOp(out)
		return []Sink{u.m.input(sideLeft), u.m.input(sideRight)}, u
	case OpTemporalJoin:
		j := newJoin(n, proj, 0, out)
		return []Sink{j.m.input(sideLeft), j.m.input(sideRight)}, j
	case OpAntiSemiJoin:
		a := newAntiSemiJoin(n, 0, out)
		return []Sink{a.m.input(sideLeft), a.m.input(sideRight)}, a
	case OpUDO:
		u := newGroupedUDOOp(&lowering{}, keying{}, nil, n.UDO, nil, out)
		return []Sink{u}, u
	default:
		panic("temporal: cannot build operator for " + n.Kind.String())
	}
}

// aggStateOf returns the constructor of Aggregate node n's accumulator, or
// an error if n's kind names no aggregate.
func aggStateOf(n *Plan) (func() aggState, error) {
	if n.Agg < 0 || int(n.Agg) >= len(newAggStates) {
		return nil, fmt.Errorf("temporal: unknown aggregate %v", n.Agg)
	}
	in := n.Inputs[0].Out
	col := -1
	var kind Kind
	if n.AggCol != "" {
		col = in.MustIndex(n.AggCol)
		kind = in.Field(col).Kind
	}
	mk := newAggStates[n.Agg]
	return func() aggState { return mk(col, kind) }, nil
}

// walkInputs visits the plan DAGs under roots, in order, following only
// Inputs edges (not GroupApply sub-plans), each shared node once.
func walkInputs(visit func(*Plan), roots ...*Plan) {
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
	}
	for _, root := range roots {
		rec(root)
	}
}
