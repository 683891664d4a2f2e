package temporal

import "testing"

// TestComputedColumnsDoNotAllocate pins that a compiled FnPred or Compute
// reuses one argument slice: evaluating it on a row allocates nothing.
func TestComputedColumnsDoNotAllocate(t *testing.T) {
	sch := readingSchema()
	pred := FnPred("Power>1", func(v []Value) bool { return v[0].AsInt() > 1 }, "Power").compile(sch)
	proj := Compute("Doubled", KindInt, func(v []Value) Value { return Int(v[0].AsInt() * 2) }, "Power")
	fn := proj.Make(sch.Indexes(proj.Cols...))
	row := reading(1, "a", 3).Payload
	var sum int64
	if a := testing.AllocsPerRun(1000, func() {
		if pred(row) {
			sum += fn(row).AsInt()
		}
	}); a != 0 {
		t.Fatalf("%.1f allocations per row, want 0", a)
	}
	if sum == 0 || !pred(row) || fn(row).AsInt() != 6 {
		t.Fatalf("wrong values: pred %v, Doubled %d", pred(row), fn(row).AsInt())
	}
}
