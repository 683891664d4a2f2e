package temporal

import (
	"testing"
	"testing/quick"
)

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{Int(42), KindInt, "42"},
		{Float(2.5), KindFloat, "2.5"},
		{String("abc"), KindString, "abc"},
		{Bool(true), KindBool, "true"},
		{Bool(false), KindBool, "false"},
		{Null, KindNull, "NULL"},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
		if c.v.String() != c.str {
			t.Errorf("String = %q, want %q", c.v.String(), c.str)
		}
	}
}

func TestValueAccessors(t *testing.T) {
	if Int(7).AsInt() != 7 {
		t.Error("AsInt")
	}
	if Float(1.5).AsFloat() != 1.5 {
		t.Error("AsFloat")
	}
	if Int(3).AsFloat() != 3.0 {
		t.Error("AsFloat should widen ints")
	}
	if String("x").AsString() != "x" {
		t.Error("AsString")
	}
	if !Bool(true).AsBool() || Bool(false).AsBool() {
		t.Error("AsBool")
	}
	if Null.Kind() != KindNull || Int(0).Kind() == KindNull {
		t.Error("Kind of Null")
	}
}

func TestValueAccessorPanics(t *testing.T) {
	mustPanic(t, func() { Int(1).AsString() })
	mustPanic(t, func() { String("a").AsInt() })
	mustPanic(t, func() { Null.AsFloat() })
	mustPanic(t, func() { Int(1).AsBool() })
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	fn()
}

func TestValueEqualCompare(t *testing.T) {
	if !Int(5).Equal(Int(5)) || Int(5).Equal(Int(6)) {
		t.Error("Int equality")
	}
	if Int(5).Equal(Float(5)) {
		t.Error("cross-kind values must not be equal")
	}
	if !String("a").Equal(String("a")) || String("a").Equal(String("b")) {
		t.Error("String equality")
	}
	if Int(1).Compare(Int(2)) != -1 || Int(2).Compare(Int(1)) != 1 || Int(2).Compare(Int(2)) != 0 {
		t.Error("Int compare")
	}
	if String("a").Compare(String("b")) != -1 {
		t.Error("String compare")
	}
	if Float(1.5).Compare(Float(2.5)) != -1 {
		t.Error("Float compare")
	}
	if Null.Compare(Null) != 0 {
		t.Error("Null compare")
	}
}

func TestValueCompareTotalOrder(t *testing.T) {
	// Compare must be antisymmetric across kinds (used by sort-based ops).
	err := quick.Check(func(a, b int64, s1, s2 string) bool {
		vals := []Value{Int(a), Int(b), String(s1), String(s2), Float(float64(a)), Null, Bool(a%2 == 0)}
		for _, x := range vals {
			for _, y := range vals {
				if x.Compare(y) != -y.Compare(x) {
					return false
				}
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestValueHashConsistency(t *testing.T) {
	err := quick.Check(func(a int64, s string, f float64) bool {
		h1 := Int(a).Hash(HashSeed)
		h2 := Int(a).Hash(HashSeed)
		h3 := String(s).Hash(HashSeed)
		h4 := String(s).Hash(HashSeed)
		h5 := Float(f).Hash(HashSeed)
		h6 := Float(f).Hash(HashSeed)
		return h1 == h2 && h3 == h4 && h5 == h6
	}, nil)
	if err != nil {
		t.Error(err)
	}
	// Different kinds with the same bits should (almost surely) differ.
	if Int(1).Hash(HashSeed) == Bool(true).Hash(HashSeed) {
		t.Error("kind not mixed into hash")
	}
}

func TestHashRow(t *testing.T) {
	r1 := Row{Int(1), String("u1"), Int(7)}
	r2 := Row{Int(2), String("u1"), Int(9)}
	if HashRow(r1, []int{1}) != HashRow(r2, []int{1}) {
		t.Error("same key columns must hash equal")
	}
	if HashRow(r1, []int{0, 1}) == HashRow(r2, []int{0, 1}) {
		t.Error("different key columns should hash differently")
	}
}

func TestSchemaBasics(t *testing.T) {
	s := NewSchema(
		Field{Name: "Time", Kind: KindInt},
		Field{Name: "UserId", Kind: KindString},
		Field{Name: "Score", Kind: KindFloat},
	)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if i := s.MustIndex("UserId"); i != 1 {
		t.Errorf("MustIndex = %d", i)
	}
	if !s.Has("Score") || s.Has("score") {
		t.Error("Has is case-sensitive")
	}
	p := s.Project("Score", "Time")
	if p.Len() != 2 || p.Field(0).Name != "Score" || p.Field(1).Name != "Time" {
		t.Errorf("Project = %s", p)
	}
	mustPanic(t, func() { s.MustIndex("Nope") })
	mustPanic(t, func() { NewSchema(Field{Name: "A"}, Field{Name: "A"}) })
}

func TestSchemaConcat(t *testing.T) {
	a := NewSchema(Field{Name: "X", Kind: KindInt}, Field{Name: "Y", Kind: KindString})
	b := NewSchema(Field{Name: "Y", Kind: KindInt}, Field{Name: "Z", Kind: KindFloat})
	c := a.Concat(b, "r.")
	want := []string{"X", "Y", "r.Y", "Z"}
	for i, n := range want {
		if c.Field(i).Name != n {
			t.Errorf("field %d = %s, want %s", i, c.Field(i).Name, n)
		}
	}
}

func TestSchemaEqual(t *testing.T) {
	a := NewSchema(Field{Name: "X", Kind: KindInt})
	b := NewSchema(Field{Name: "X", Kind: KindInt})
	c := NewSchema(Field{Name: "X", Kind: KindFloat})
	if !a.Equal(b) || a.Equal(c) {
		t.Error("schema equality")
	}
}

func TestRowHelpers(t *testing.T) {
	r := Row{Int(1), String("a")}
	cl := r.Clone()
	cl[0] = Int(2)
	if r[0].AsInt() != 1 {
		t.Error("Clone must not alias")
	}
	if !r.Equal(Row{Int(1), String("a")}) || r.Equal(Row{Int(1)}) {
		t.Error("Row.Equal")
	}
}
