package temporal

import (
	"cmp"
	"math"
	"slices"
)

// aggState is the incremental state of one snapshot aggregate. Insert and
// Remove must be exact inverses so that the sweep over snapshot boundaries
// yields the same result regardless of event interleaving. snapshot and
// restore serialize the accumulator itself (not a re-derivation from live
// rows): float accumulators are order-sensitive, so re-inserting rows in
// a canonical order would perturb sums by an ULP and break the exactness
// of recovery.
//
// An accumulator lives as long as its active set: the kernel drops it when
// the set empties — a logical event, however the input was cut into runs
// or punctuated — so a float sum carries no rounding residue across an empty
// snapshot and an aggregate with no open lifetime equals a new one.
type aggState interface {
	Insert(Row)
	Remove(Row)
	Result() Value
	snapshot(w *Encoder)
	restore(r *Decoder)
}

// ---- Count ----

type countState struct{ n int64 }

func (s *countState) Insert(Row)    { s.n++ }
func (s *countState) Remove(Row)    { s.n-- }
func (s *countState) Result() Value { return Int(s.n) }

func (s *countState) snapshot(w *Encoder) { w.Varint(s.n) }
func (s *countState) restore(r *Decoder)  { s.n = r.Varint() }

// ---- Sum / Avg ----

type sumState struct {
	col     int
	isFloat bool
	i       int64
	f       float64
}

func (s *sumState) Insert(r Row) {
	if s.isFloat {
		s.f += r[s.col].AsFloat()
	} else {
		s.i += r[s.col].AsInt()
	}
}
func (s *sumState) Remove(r Row) {
	if s.isFloat {
		s.f -= r[s.col].AsFloat()
	} else {
		s.i -= r[s.col].AsInt()
	}
}
func (s *sumState) Result() Value {
	if s.isFloat {
		return Float(s.f)
	}
	return Int(s.i)
}

func (s *sumState) snapshot(w *Encoder) {
	w.Varint(s.i)
	w.Value(Float(s.f))
}

func (s *sumState) restore(r *Decoder) {
	s.i = r.Varint()
	if v := r.Value(); v.Kind() == KindFloat {
		s.f = v.AsFloat()
	}
}

type avgState struct {
	col int
	n   int64
	f   float64
}

func (s *avgState) Insert(r Row) { s.f += r[s.col].AsFloat(); s.n++ }
func (s *avgState) Remove(r Row) { s.f -= r[s.col].AsFloat(); s.n-- }
func (s *avgState) Result() Value {
	if s.n == 0 {
		return Float(0)
	}
	return Float(s.f / float64(s.n))
}

func (s *avgState) snapshot(w *Encoder) {
	w.Varint(s.n)
	w.Value(Float(s.f))
}

func (s *avgState) restore(r *Decoder) {
	s.n = r.Varint()
	if v := r.Value(); v.Kind() == KindFloat {
		s.f = v.AsFloat()
	}
}

// ---- Min / Max ----
//
// Min/Max cannot be maintained by a single accumulator under removals; we
// keep a multiset plus a lazily-cleaned heap of candidate extrema.

// minMaxKey is a Value made comparable, to key the multiset. Key equality
// is Value.Equal (floats canonicalised, -0 to +0), except that every NaN
// is one key: under Equal a NaN entry could be inserted but never removed.
type minMaxKey struct {
	kind Kind
	bits uint64
	s    string
}

func keyOf(v Value) minMaxKey {
	k := minMaxKey{kind: v.Kind(), bits: v.n}
	switch f := math.Float64frombits(v.n); {
	case k.kind == KindString:
		k.s = v.str()
	case k.kind == KindFloat && math.IsNaN(f):
		k.bits = math.Float64bits(math.NaN())
	case k.kind == KindFloat && f == 0:
		k.bits = 0
	}
	return k
}

// minMaxCount is one multiset entry; v, the value last inserted or removed
// under the key, is what a snapshot writes (±0 differ in bits).
type minMaxCount struct {
	v Value
	n int
}

type minMaxState struct {
	col    int
	counts map[minMaxKey]minMaxCount
	h      minHeap[Value] // "least" is greatest for Max
}

// A NaN compares 0 to every float, so among {NaN, x} the extremum is
// whichever was inserted first.
func newMinMaxState(col int, max bool) *minMaxState {
	less := func(a, b Value) bool { return a.Compare(b) < 0 }
	if max {
		less = func(a, b Value) bool { return a.Compare(b) > 0 }
	}
	return &minMaxState{col: col, counts: make(map[minMaxKey]minMaxCount), h: minHeap[Value]{less: less}}
}

func (s *minMaxState) Insert(r Row) {
	v := r[s.col]
	k := keyOf(v)
	s.counts[k] = minMaxCount{v: v, n: s.counts[k].n + 1}
	s.h.push(v)
}

func (s *minMaxState) Remove(r Row) {
	v := r[s.col]
	k := keyOf(v)
	if n := s.counts[k].n; n <= 1 {
		delete(s.counts, k)
	} else {
		s.counts[k] = minMaxCount{v: v, n: n - 1}
	}
}

func (s *minMaxState) Result() Value {
	for len(s.h.items) > 0 {
		top := s.h.items[0]
		if s.counts[keyOf(top)].n > 0 {
			return top
		}
		s.h.pop() // stale entry from a removed event
	}
	return Null
}

// snapshot writes the live multiset in value order (a NaN, which Compare
// ties with every float, first among floats). The lazily-cleaned
// candidate heap is not serialized: it only ever holds a superset of the
// live values, so rebuilding it with exactly one entry per distinct live
// value is behaviorally equivalent (Result prunes stale entries lazily
// either way).
func (s *minMaxState) snapshot(w *Encoder) {
	live := make([]minMaxCount, 0, len(s.counts))
	for _, c := range s.counts {
		live = append(live, c)
	}
	slices.SortFunc(live, func(a, b minMaxCount) int {
		if a.v.Kind() == KindFloat && b.v.Kind() == KindFloat {
			return cmp.Compare(a.v.AsFloat(), b.v.AsFloat())
		}
		return a.v.Compare(b.v)
	})
	w.Uvarint(uint64(len(live)))
	for _, c := range live {
		w.Value(c.v)
		w.Varint(int64(c.n))
	}
}

func (s *minMaxState) restore(r *Decoder) {
	n := r.Count("min/max multiset")
	for i := 0; i < n && r.Err() == nil; i++ {
		v := r.Value()
		c := int(r.Varint())
		if r.Err() != nil {
			return
		}
		s.counts[keyOf(v)] = minMaxCount{v: v, n: c}
		s.h.push(v)
	}
}

// newAggStates holds the accumulator constructor of every AggKind, by kind:
// one outside it names no aggregate (aggStateOf).
var newAggStates = [...]func(col int, colKind Kind) aggState{
	AggCount: func(int, Kind) aggState { return &countState{} },
	AggSum:   func(col int, k Kind) aggState { return &sumState{col: col, isFloat: k == KindFloat} },
	AggMin:   func(col int, _ Kind) aggState { return newMinMaxState(col, false) },
	AggMax:   func(col int, _ Kind) aggState { return newMinMaxState(col, true) },
	AggAvg:   func(col int, _ Kind) aggState { return &avgState{col: col} },
}

// expiration is one right endpoint awaited, with what the owner of the
// queue hangs on it (an aggregate: the active event's row and its slot).
type expiration[T any] struct {
	re  Time
	seq uint64 // arrival order: breaks re ties in the heap
	v   T
}

// expQueue releases expirations in (re, arrival) order. Window and hop
// lifetimes end in the order they start, so the queue is a FIFO for as
// long as right endpoints arrive nondecreasing; the first one that does
// not turns it into a heap (a sorted slice is one already) until it next
// runs empty. Either way entries with equal re leave in arrival order — a
// float accumulator's last bit depends on the order values are removed in
// — so the representation is invisible, also across a restore.
type expQueue[T any] struct {
	h      minHeap[expiration[T]] // h.items[head:] is the queue
	head   int                    // consumed FIFO prefix; 0 while heaped
	heaped bool
	seq    uint64
}

func expBefore[T any](a, b expiration[T]) bool {
	return a.re < b.re || a.re == b.re && a.seq < b.seq
}

func (q *expQueue[T]) len() int { return len(q.h.items) - q.head }

// top is the next expiration; the queue must not be empty.
func (q *expQueue[T]) top() *expiration[T] { return &q.h.items[q.head] }

func (q *expQueue[T]) push(re Time, v T) {
	x := expiration[T]{re: re, seq: q.seq, v: v}
	q.seq++
	if !q.heaped {
		if n := len(q.h.items); n == q.head || q.h.items[n-1].re <= x.re {
			q.h.items = append(q.h.items, x)
			return
		}
		q.compact()
		q.heaped, q.h.less = true, expBefore[T]
	}
	q.h.push(x)
}

// compact moves the FIFO down over its consumed prefix.
func (q *expQueue[T]) compact() {
	s := q.h.items
	n := copy(s, s[q.head:])
	clear(s[n:]) // the vacated tail must not pin rows
	q.h.items, q.head = s[:n], 0
}

func (q *expQueue[T]) pop() expiration[T] {
	if q.heaped {
		x := q.h.pop()
		q.heaped = len(q.h.items) > 0
		return x
	}
	s := q.h.items
	x := s[q.head]
	s[q.head] = expiration[T]{} // the consumed prefix must not pin x's row
	q.head++
	if q.head == len(s) || q.head > 64 && q.head*2 >= len(s) {
		q.compact()
	}
	return x
}

// ordered returns the queue in pop order (its own array while a FIFO).
func (q *expQueue[T]) ordered() []expiration[T] {
	if !q.heaped {
		return q.h.items[q.head:]
	}
	exp := slices.Clone(q.h.items)
	slices.SortFunc(exp, func(a, b expiration[T]) int {
		return cmp.Or(cmp.Compare(a.re, b.re), cmp.Compare(a.seq, b.seq))
	})
	return exp
}

// aggSlot is one snapshot-aggregate sweep: the accumulator over the
// active events (those whose lifetime contains the sweep position) and
// the start of the open segment.
type aggSlot struct {
	state  aggState
	active int
	cur    Time
}

// closeAt ends the open segment at upto. ok reports that [le, upto) is a
// segment to emit with state.Result(): non-empty, over a non-empty active
// set.
func (s *aggSlot) closeAt(upto Time) (le Time, ok bool) {
	le, ok = s.cur, s.active > 0 && s.cur < upto
	if upto > s.cur {
		s.cur = upto
	}
	return le, ok
}
