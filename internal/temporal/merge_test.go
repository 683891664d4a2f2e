package temporal

import (
	"reflect"
	"slices"
	"sort"
	"testing"
)

func TestMergedIngestTieOrder(t *testing.T) {
	// Two sources handed over as a map, tied on LE again and again, one of
	// them out of order: what reaches the pipeline's entries must be ordered
	// by (LE, source name, position in run) on every call — it used to
	// follow Go's map iteration — and the caller's slices must come back
	// untouched.
	type fed struct {
		Source string
		Power  int64
	}
	var log []fed
	record := func(src string) Predicate {
		return FnPred("record "+src, func(vals []Value) bool {
			log = append(log, fed{src, vals[0].AsInt()})
			return true
		}, "Power")
	}
	sch := readingSchema()
	// A filter directly over each scan is that source's pipeline entry, so
	// the predicates run in feed order.
	plan := Scan("a", sch).Where(record("a")).Union(Scan("b", sch).Where(record("b")))

	inputs := map[string][]Event{
		"b": {reading(3, "b", 0), reading(1, "b", 1), reading(3, "b", 2), reading(2, "b", 3), reading(1, "b", 4)},
		"a": {reading(1, "a", 0), reading(1, "a", 1), reading(2, "a", 2), reading(3, "a", 3), reading(3, "a", 4)},
	}
	before := map[string][]Event{"a": slices.Clone(inputs["a"]), "b": slices.Clone(inputs["b"])}

	type keyed struct {
		le Time
		fed
	}
	var all []keyed
	for _, src := range []string{"a", "b"} {
		for _, e := range inputs[src] {
			all = append(all, keyed{e.LE, fed{src, e.Payload[2].AsInt()}})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].le < all[j].le })
	var want []fed
	for _, k := range all {
		want = append(want, k.fed)
	}

	for call := 0; call < 50; call++ {
		log = log[:0]
		if _, err := RunPlan(plan, inputs); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(log, want) {
			t.Fatalf("call %d: fed %v, want %v", call, log, want)
		}
	}
	for src, evs := range inputs {
		if !EventsEqual(evs, before[src]) {
			t.Fatalf("RunPlan reordered the caller's %q events: %v", src, evs)
		}
	}
}
