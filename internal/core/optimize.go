package core

import (
	"fmt"
	"sort"
	"strings"

	"timr/internal/temporal"
)

// Stats feeds the optimizer's cost model (paper §VI "Cost Estimation"):
// exchange cost covers writing, repartitioning over the network and
// re-reading rows; operator cost shrinks with the parallelism its
// partitioning key admits.
type Stats struct {
	// SourceRows estimates the row count of each scan source.
	SourceRows map[string]int64
	// Distinct estimates the number of distinct values of a column set;
	// a set with no entry, and none for any of its columns, has
	// defaultDistinct.
	Distinct map[string]int64
	// TimeSpans estimates the parallelism of temporal partitioning
	// (default: Machines).
	TimeSpans int64
	// Machines is the cluster size (default 150).
	Machines int64
}

// Cost-model constants: the distinct count of a column set with no
// estimate, and the per-row weights of shuffle and compute (an exchange
// is a disk write + transfer + read).
const (
	defaultDistinct = 1024
	exchangePerRow  = 3.0
	cpuPerRow       = 1.0
)

// DefaultStats returns a usable baseline cost model.
func DefaultStats() *Stats {
	return &Stats{
		SourceRows: map[string]int64{},
		Distinct:   map[string]int64{},
		Machines:   150,
	}
}

func (s *Stats) distinct(cols []string) int64 {
	key := strings.Join(cols, ",")
	if v, ok := s.Distinct[key]; ok {
		return v
	}
	// A superset of columns has at least the max of its parts.
	var best int64
	for _, c := range cols {
		if v, ok := s.Distinct[c]; ok && v > best {
			best = v
		}
	}
	if best > 0 {
		return best
	}
	return defaultDistinct
}

func (s *Stats) parallelism(k pkey) float64 {
	switch {
	case k.time:
		n := s.TimeSpans
		if n <= 0 {
			n = s.Machines
		}
		if n > s.Machines {
			n = s.Machines
		}
		if n < 1 {
			n = 1
		}
		return float64(n)
	case len(k.cols) == 0:
		return 1
	default:
		d := s.distinct(k.cols)
		if d > s.Machines {
			d = s.Machines
		}
		if d < 1 {
			d = 1
		}
		return float64(d)
	}
}

// pkey is a partitioning property during optimization: a column set, time
// partitioning, the empty key (single partition), or "any".
type pkey struct {
	cols []string // sorted
	time bool
	any  bool
}

var (
	anyKey  = pkey{any: true}
	noneKey = pkey{}
	timeKey = pkey{time: true}
)

func colsKey(cols []string) pkey {
	c := append([]string(nil), cols...)
	sort.Strings(c)
	return pkey{cols: c}
}

func (k pkey) String() string {
	switch {
	case k.any:
		return "any"
	case k.time:
		return "time"
	case len(k.cols) == 0:
		return "none"
	default:
		return "{" + strings.Join(k.cols, ",") + "}"
	}
}

func (k pkey) isSpecificCols() bool { return !k.any && !k.time && len(k.cols) > 0 }

// subsetOf reports whether k's columns are a subset of set.
func (k pkey) subsetOf(set []string) bool {
	for _, c := range k.cols {
		found := false
		for _, s := range set {
			if s == c {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func (k pkey) equal(o pkey) bool {
	if k.any != o.any || k.time != o.time || len(k.cols) != len(o.cols) {
		return false
	}
	for i := range k.cols {
		if k.cols[i] != o.cols[i] {
			return false
		}
	}
	return true
}

func (k pkey) toPartitionBy() temporal.PartitionBy {
	if k.time {
		return temporal.PartitionBy{Temporal: true}
	}
	return temporal.PartitionBy{Cols: append([]string(nil), k.cols...)}
}

// Optimizer annotates CQ plans with exchange operators using a top-down,
// memoized search in the style of Cascades (paper Algorithm 1): each node
// is optimized under a required partitioning property; candidate
// transformations either run the node under a compatible key (recursively
// requiring it from children) or insert an exchange.
type Optimizer struct {
	Stats *Stats
	memo  map[memoKey]*optResult
	cards map[*temporal.Plan]float64
}

type memoKey struct {
	node *temporal.Plan
	req  string
}

type optResult struct {
	plan      *temporal.Plan
	cost      float64
	delivered pkey
	err       error
}

// NewOptimizer builds an optimizer over the given statistics.
func NewOptimizer(stats *Stats) *Optimizer {
	if stats == nil {
		stats = DefaultStats()
	}
	return &Optimizer{Stats: stats, memo: make(map[memoKey]*optResult), cards: make(map[*temporal.Plan]float64)}
}

// Optimize returns the cheapest annotated plan, its estimated cost and the
// delivered partitioning.
func (o *Optimizer) Optimize(plan *temporal.Plan) (*temporal.Plan, float64, error) {
	res := o.opt(plan, anyKey)
	if res.err != nil {
		return nil, 0, res.err
	}
	return res.plan, res.cost, nil
}

// EstimateCost prices an annotated plan as a DAG: each node once, however
// many consumers share it. A scan costs one read of its rows — the
// map-side read and shuffle every stage pays for its raw input, whether it
// lands on one reducer or many — so an exchange directly over a scan adds
// nothing; any other exchange costs a shuffle of its input's rows, and an
// operator its compute under the partitioning in force below it. The
// search prices every candidate with it, so the cost Optimize returns is
// the EstimateCost of the plan it returns.
func (o *Optimizer) EstimateCost(plan *temporal.Plan) float64 {
	var cost float64
	seen := make(map[*temporal.Plan]bool)
	var walk func(n *temporal.Plan)
	walk = func(n *temporal.Plan) {
		if seen[n] {
			return
		}
		seen[n] = true
		for _, in := range n.Inputs {
			walk(in)
		}
		switch n.Kind {
		case temporal.OpScan:
			cost += o.exchangeCost(n)
		case temporal.OpGroupInput:
		case temporal.OpExchange:
			if n.Inputs[0].Kind != temporal.OpScan {
				cost += o.exchangeCost(n.Inputs[0])
			}
		default:
			cost += o.opCost(n, o.annotatedKeyBelow(n))
		}
	}
	walk(plan)
	return cost
}

// annotatedKeyBelow finds the partitioning in force at node n in an
// explicitly annotated plan: the nearest exchange at or below n.
func (o *Optimizer) annotatedKeyBelow(n *temporal.Plan) pkey {
	for cur := n; ; {
		if cur.Kind == temporal.OpExchange {
			if cur.Part.Temporal {
				return timeKey
			}
			return colsKey(cur.Part.Cols)
		}
		if len(cur.Inputs) == 0 {
			return noneKey
		}
		cur = cur.Inputs[0]
	}
}

// card estimates output rows of a node with simple selectivity heuristics.
func (o *Optimizer) card(n *temporal.Plan) float64 {
	if v, ok := o.cards[n]; ok {
		return v
	}
	var v float64
	switch n.Kind {
	case temporal.OpScan:
		v = float64(o.Stats.SourceRows[n.Source])
		if v == 0 {
			v = 1_000_000
		}
	case temporal.OpGroupInput:
		v = 1_000_000
	case temporal.OpSelect:
		v = 0.5 * o.card(n.Inputs[0])
	case temporal.OpAggregate:
		v = o.card(n.Inputs[0])
	case temporal.OpUnion:
		v = o.card(n.Inputs[0]) + o.card(n.Inputs[1])
	case temporal.OpTemporalJoin:
		l, r := o.card(n.Inputs[0]), o.card(n.Inputs[1])
		v = l + r
	case temporal.OpAntiSemiJoin:
		v = 0.8 * o.card(n.Inputs[0])
	case temporal.OpUDO:
		v = o.card(n.Inputs[0]) / 10
	default:
		v = o.card(n.Inputs[0])
	}
	if v < 1 {
		v = 1
	}
	o.cards[n] = v
	return v
}

func opFactor(k temporal.OpKind) float64 {
	switch k {
	case temporal.OpSelect, temporal.OpProject, temporal.OpAlterLifetime:
		return 0.2
	case temporal.OpTemporalJoin, temporal.OpAntiSemiJoin:
		return 2.0
	case temporal.OpGroupApply:
		return 1.5
	case temporal.OpUDO:
		return 5.0
	default:
		return 1.0
	}
}

func (o *Optimizer) opCost(n *temporal.Plan, k pkey) float64 {
	var in float64
	for _, c := range n.Inputs {
		in += o.card(c)
	}
	return cpuPerRow * in * opFactor(n.Kind) / o.Stats.parallelism(k)
}

func (o *Optimizer) exchangeCost(n *temporal.Plan) float64 {
	return exchangePerRow * o.card(n)
}

// candidateKeys enumerates the interesting partitioning keys of a plan:
// the key sets of GroupApply/Join operators and their single columns,
// plus Time when the plan is windowed (paper §VI "Deriving Required
// Properties": partitioning on X serves any superset requirement, and any
// windowed stream can be partitioned by Time).
func candidateKeys(plan *temporal.Plan) []pkey {
	var keys []pkey
	add := func(k pkey) {
		for _, e := range keys {
			if e.equal(k) {
				return
			}
		}
		keys = append(keys, k)
	}
	plan.Walk(func(n *temporal.Plan) {
		switch n.Kind {
		case temporal.OpGroupApply, temporal.OpTemporalJoin, temporal.OpAntiSemiJoin:
			if len(n.Keys) > 0 {
				add(colsKey(n.Keys))
				for _, c := range n.Keys {
					add(colsKey([]string{c}))
				}
			}
		}
	})
	if plan.MaxWindow() > 0 {
		add(timeKey)
	}
	add(noneKey)
	return keys
}

func (o *Optimizer) opt(n *temporal.Plan, req pkey) *optResult {
	mk := memoKey{node: n, req: req.String()}
	if r, ok := o.memo[mk]; ok {
		return r
	}
	r := o.optimizeNode(n, req)
	o.memo[mk] = r
	return r
}

func fail(format string, args ...interface{}) *optResult {
	return &optResult{err: fmt.Errorf(format, args...)}
}

func (o *Optimizer) optimizeNode(n *temporal.Plan, req pkey) *optResult {
	switch n.Kind {
	case temporal.OpScan:
		// A scan costs the same read whether it lands on one reducer
		// (none) or many (see EstimateCost), so plans are compared on
		// their inter-fragment exchanges and per-operator parallelism.
		if req.any || req.equal(noneKey) {
			return &optResult{plan: n, cost: o.EstimateCost(n), delivered: noneKey}
		}
		if req.isSpecificCols() {
			for _, c := range req.cols {
				if !n.Out.Has(c) {
					return fail("timr: source %s lacks column %s", n.Source, c)
				}
			}
		}
		plan := n.Exchange(req.toPartitionBy())
		return &optResult{plan: plan, cost: o.EstimateCost(plan), delivered: req}
	case temporal.OpExchange:
		return fail("timr: optimizer input must not be pre-annotated")
	}

	// Runnable keys for this node.
	var runnable []pkey
	windowed := n.MaxWindow() > 0
	addRunnable := func(k pkey) {
		for _, e := range runnable {
			if e.equal(k) {
				return
			}
		}
		runnable = append(runnable, k)
	}
	cands := o.candidates(n)
	switch n.Kind {
	case temporal.OpGroupApply, temporal.OpTemporalJoin, temporal.OpAntiSemiJoin:
		for _, k := range cands {
			if k.isSpecificCols() && k.subsetOf(n.Keys) {
				addRunnable(k)
			}
		}
		if windowed {
			addRunnable(timeKey)
		}
		addRunnable(noneKey)
	case temporal.OpAggregate, temporal.OpUDO:
		if windowed {
			addRunnable(timeKey)
		}
		addRunnable(noneKey)
	default: // stateless + union: any key works
		if req.any {
			for _, k := range cands {
				addRunnable(k)
			}
			addRunnable(noneKey)
		} else {
			addRunnable(req)
			addRunnable(noneKey)
		}
	}

	var best *optResult
	for _, k := range runnable {
		res := o.tryKey(n, k, req)
		if res.err != nil {
			continue
		}
		if best == nil || res.cost < best.cost {
			best = res
		}
	}
	if best == nil {
		return fail("timr: no valid annotation for %s under %s", n.Kind, req)
	}
	return best
}

// candidates caches the global candidate set (computed from the root the
// first time any node asks).
func (o *Optimizer) candidates(n *temporal.Plan) []pkey {
	// Candidate keys are global to the query; derive them from this
	// subtree (sufficient: keys referenced above n cannot partition n's
	// subtree unless its own operators expose them).
	return candidateKeys(n)
}

// tryKey builds the plan running node n under key k, repartitioned to req
// above if needed, and prices it with EstimateCost.
func (o *Optimizer) tryKey(n *temporal.Plan, k, req pkey) *optResult {
	// Children requirements under k.
	childReqs, ok := o.childRequirements(n, k)
	if !ok {
		return fail("timr: key %s not derivable through %s", k, n.Kind)
	}
	newInputs := make([]*temporal.Plan, len(n.Inputs))
	for i, c := range n.Inputs {
		cr := o.opt(c, childReqs[i])
		if cr.err != nil {
			return cr
		}
		newInputs[i] = cr.plan
	}
	cp := *n
	cp.Inputs = newInputs
	out := &optResult{plan: &cp, delivered: k}

	// Unless k satisfies req, or implies it — partitioning by a subset
	// implies partitioning by the superset — repartition to req.
	if !req.any && !req.equal(k) && !(req.isSpecificCols() && k.isSpecificCols() && k.subsetOf(req.cols)) {
		if !keySurvives(n.Out, req) {
			return fail("timr: required key %s not present in output of %s", req, n.Kind)
		}
		out.plan = out.plan.Exchange(req.toPartitionBy())
		out.delivered = req
	}
	out.cost = o.EstimateCost(out.plan)
	return out
}

func keySurvives(schema *temporal.Schema, k pkey) bool {
	if !k.isSpecificCols() {
		return true
	}
	for _, c := range k.cols {
		if !schema.Has(c) {
			return false
		}
	}
	return true
}

// childRequirements derives the per-child partitioning requirement for
// running n under key k (paper §VI "Deriving Required Properties").
func (o *Optimizer) childRequirements(n *temporal.Plan, k pkey) ([]pkey, bool) {
	reqs := make([]pkey, len(n.Inputs))
	switch n.Kind {
	case temporal.OpTemporalJoin, temporal.OpAntiSemiJoin:
		if k.time || !k.isSpecificCols() {
			for i := range reqs {
				reqs[i] = k
			}
			return reqs, true
		}
		// Map each left key column to the corresponding right column.
		var rightCols []string
		for _, c := range k.cols {
			pos := -1
			for i, lk := range n.Keys {
				if lk == c {
					pos = i
					break
				}
			}
			if pos < 0 {
				return nil, false
			}
			rightCols = append(rightCols, n.RightKeys[pos])
		}
		reqs[0] = k
		reqs[1] = colsKey(rightCols)
		return reqs, true
	case temporal.OpProject:
		if !k.isSpecificCols() {
			reqs[0] = k
			return reqs, true
		}
		// Map output columns back through direct projections.
		var srcCols []string
		for _, c := range k.cols {
			mapped := ""
			for _, pr := range n.Projs {
				if pr.Name == c && pr.Source != "" {
					mapped = pr.Source
					break
				}
			}
			if mapped == "" {
				return nil, false // computed column: cannot push the key down
			}
			srcCols = append(srcCols, mapped)
		}
		reqs[0] = colsKey(srcCols)
		return reqs, true
	default:
		// GroupApply keys, select/alter-lifetime/aggregate/UDO inputs and
		// union branches share the node's column names.
		for i := range reqs {
			reqs[i] = k
		}
		if k.isSpecificCols() {
			for i, c := range n.Inputs {
				_ = i
				if !keySurvives(c.Out, k) {
					return nil, false
				}
			}
		}
		return reqs, true
	}
}
