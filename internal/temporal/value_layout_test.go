package temporal

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// TestValueLayout pins what a row costs: a layout regression fails tier-1,
// not a benchmark.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 16 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 16", got)
	}
	if got := unsafe.Sizeof(Event{}); got != 40 {
		t.Errorf("unsafe.Sizeof(Event{}) = %d, want 40", got)
	}
}

// TestIntHoldsNoPointer: every pointer-carrying word of an int Value is
// nil, whatever its payload. A row of ints then holds nothing the garbage
// collector or the write barrier has to look up; a layout that tags ints
// with a pointer keeps every test green but the GC's mark cost, so it must
// fail here.
func TestIntHoldsNoPointer(t *testing.T) {
	vt := reflect.TypeFor[Value]()
	words := 0
	for i := range vt.NumField() {
		f := vt.Field(i)
		switch f.Type.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
			reflect.Map, reflect.Chan, reflect.Interface:
		default:
			continue // [0]func() is zero-size: it holds no word
		}
		words++
		for _, n := range []int64{0, 1, -1, math.MinInt64, math.MaxInt64} {
			v := Int(n)
			if w := *(*uintptr)(unsafe.Add(unsafe.Pointer(&v), f.Offset)); w != 0 {
				t.Errorf("Int(%d): pointer word %s is %#x, want nil", n, f.Name, w)
			}
		}
	}
	if words != 1 {
		t.Errorf("Value has %d pointer-carrying fields, want 1", words)
	}
}

// TestZeroValueIsInt: the zero Value is Int(0), and the five kinds' zero
// payloads — Null, Int(0), Float(0), Bool(false), String("") — stay
// five distinct values under Kind, Equal and Row.Equal.
func TestZeroValueIsInt(t *testing.T) {
	var zero Value
	if zero.Kind() != KindInt || zero.AsInt() != 0 || !zero.Equal(Int(0)) || zero.Equal(Null) {
		t.Errorf("the zero Value is %v of kind %v, want Int(0)", zero, zero.Kind())
	}
	vals := []Value{Null, Int(0), Float(0), Bool(false), String("")}
	for i, a := range vals {
		for j, b := range vals {
			if i == j {
				if !a.Equal(b) || !rowsEqual([]Row{{a}}, []Row{{b}}) {
					t.Errorf("%v (%v) does not equal itself", a, a.Kind())
				}
				continue
			}
			if a.Kind() == b.Kind() {
				t.Errorf("%v and %v share kind %v", a, b, a.Kind())
			}
			if a.Equal(b) || rowsEqual([]Row{{a}}, []Row{{b}}) {
				t.Errorf("%v (%v) equals %v (%v)", a, a.Kind(), b, b.Kind())
			}
		}
	}
}

// valueGolden is one row of the table TestValueGoldens pins. hash, encLen,
// enc, order and str were captured at commit 270cf47, where Value was the
// 40-byte {kind, i, f, s} struct: the compact layout must not move an
// encoded byte, a partition hash or a sort order.
type valueGolden struct {
	name   string
	v      Value
	kind   Kind
	hash   uint64 // Hash(HashSeed)
	encLen int
	enc    string // Encoder.Value bytes in hex, "sha256:<hex>" beyond 64 bytes
	// order is Compare against every table entry in table order: '<', '='
	// or '>', written 'L', 'E', 'G' where Equal also reports true — which
	// pins Equal and Compare against each other (NaN compares '=' to every
	// float and equals none, itself included; -0 is 'E' to +0).
	order string
	str   string // String(), first 12 bytes
}

var bigString = strings.Repeat("0123456789abcdef", 70_000/16)

var valueGoldens = []valueGolden{
	{"null", Null, KindNull, 0x8328807b4eb6fed, 1, "00", "E<<<<<<<<<<<<<<<<<", "NULL"},
	{"int0", Int(0), KindInt, 0x82f2207b4e88cc4, 2, "0100", ">E<>><<<<<<<<<<<<<", "0"},
	{"int1", Int(1), KindInt, 0x82f2307b4e88e77, 2, "0102", ">>E>><<<<<<<<<<<<<", "1"},
	{"int-1", Int(-1), KindInt, 0xf7d0dcf84b177189, 2, "0101", "><<E><<<<<<<<<<<<<", "-1"},
	{"intMin", Int(math.MinInt64), KindInt, 0x882f2207b4e88cc4, 11, "01ffffffffffffffffff01", "><<<E<<<<<<<<<<<<<", "-92233720368"},
	{"intMax", Int(math.MaxInt64), KindInt, 0x77d0dcf84b177189, 11, "01feffffffffffffffff01", ">>>>>E<<<<<<<<<<<<", "922337203685"},
	{"false", Bool(false), KindBool, 0x824f007b4dfe349, 2, "0400", ">>>>>>E<>>>>>>>>>>", "false"},
	{"true", Bool(true), KindBool, 0x824ef07b4dfe196, 2, "0402", ">>>>>>>E>>>>>>>>>>", "true"},
	{"+0", Float(0), KindFloat, 0x8395407b4f1363f, 2, "0200", ">>>>>><<EE<>=<<<<<", "0"},
	{"-0", Float(math.Copysign(0, -1)), KindFloat, 0x88395407b4f1363f, 11, "0280808080808080808001", ">>>>>><<EE<>=<<<<<", "-0"},
	{"+Inf", Float(math.Inf(1)), KindFloat, 0x6cc95407b4f1363f, 10, "0280808080808080f87f", ">>>>>><<>>E>=><<<<", "+Inf"},
	{"-Inf", Float(math.Inf(-1)), KindFloat, 0xecc95407b4f1363f, 11, "0280808080808080f8ff01", ">>>>>><<<<<E=<<<<<", "-Inf"},
	{"NaN", Float(math.NaN()), KindFloat, 0x7a615307b4f1348c, 10, "0281808080808080fc7f", ">>>>>><<======<<<<", "NaN"},
	{"denormal", Float(1e-310), KindFloat, 0x77bca242d7a1c1ea, 8, "02abccc3db88cd04", ">>>>>><<>><>=E<<<<", "1e-310"},
	{"empty", String(""), KindString, 0xaf63be4c8601b992, 2, "0300", ">>>>>><<>>>>>>E<<<", ""},
	{"a", String("a"), KindString, 0x8364f07b4eef7e9, 3, "030161", ">>>>>><<>>>>>>>E><", "a"},
	{"big", String(bigString), KindString, 0x5d2bf45c0390bb82, 70004, "sha256:317bbdd8a6c92443826caf18ab99253f184120dddc9b80e2af5292e9cbb02f9e", ">>>>>><<>>>>>>><E<", "0123456789ab"},
	{"nonutf8", String("\xff\xfe\x00"), KindString, 0xae91878740218f31, 5, "0303fffe00", ">>>>>><<>>>>>>>>>E", "\xff\xfe\x00"},
}

func encGolden(b []byte) string {
	if len(b) > 64 {
		sum := sha256.Sum256(b)
		return "sha256:" + hex.EncodeToString(sum[:])
	}
	return hex.EncodeToString(b)
}

// accessorsAgree checks Kind and the As* accessors of got against want's
// (floats bit for bit, so NaN and -0 are told apart).
func accessorsAgree(t *testing.T, name string, got, want Value) {
	t.Helper()
	if got.Kind() != want.Kind() {
		t.Errorf("%s: kind %v, want %v", name, got.Kind(), want.Kind())
		return
	}
	switch want.Kind() {
	case KindInt:
		if got.AsInt() != want.AsInt() || got.AsFloat() != float64(want.AsInt()) {
			t.Errorf("%s: AsInt %d, want %d", name, got.AsInt(), want.AsInt())
		}
	case KindBool:
		if got.AsBool() != want.AsBool() {
			t.Errorf("%s: AsBool %v", name, got.AsBool())
		}
	case KindFloat:
		if math.Float64bits(got.AsFloat()) != math.Float64bits(want.AsFloat()) {
			t.Errorf("%s: AsFloat bits %#x, want %#x", name, math.Float64bits(got.AsFloat()), math.Float64bits(want.AsFloat()))
		}
	case KindString:
		if got.AsString() != want.AsString() {
			t.Errorf("%s: AsString differs (len %d, want %d)", name, len(got.AsString()), len(want.AsString()))
		}
	}
}

func TestValueGoldens(t *testing.T) {
	for _, g := range valueGoldens {
		if g.v.Kind() != g.kind {
			t.Errorf("%s: Kind = %v, want %v", g.name, g.v.Kind(), g.kind)
		}
		if got := g.v.Hash(HashSeed); got != g.hash {
			t.Errorf("%s: Hash = %#x, want %#x", g.name, got, g.hash)
		}
		if got := g.v.EncodedLen(); got != g.encLen {
			t.Errorf("%s: EncodedLen = %d, want %d", g.name, got, g.encLen)
		}
		var w Encoder
		w.Value(g.v)
		if got := encGolden(w.Bytes()); got != g.enc || w.Len() != g.encLen {
			t.Errorf("%s: encoded %s (%d bytes), want %s (%d)", g.name, got, w.Len(), g.enc, g.encLen)
		}
		var order strings.Builder
		for _, o := range valueGoldens {
			c := g.v.Compare(o.v)
			if g.v.Equal(o.v) {
				order.WriteByte("LEG"[c+1])
			} else {
				order.WriteByte("<=>"[c+1])
			}
		}
		if order.String() != g.order {
			t.Errorf("%s: Compare/Equal row %s, want %s", g.name, order.String(), g.order)
		}
		if s := g.v.String(); s[:min(len(s), 12)] != g.str {
			t.Errorf("%s: String() = %q, want %q", g.name, s[:min(len(s), 12)], g.str)
		}

		// The decoded value is the same value, and owns its bytes: a
		// string must not alias the decoder's input buffer.
		buf := append([]byte(nil), w.Bytes()...)
		d := NewDecoder(buf)
		dec := d.Value()
		if err := d.Done(); err != nil {
			t.Fatalf("%s: decode: %v", g.name, err)
		}
		for i := range buf {
			buf[i] ^= 0xA5
		}
		accessorsAgree(t, g.name, dec, g.v)
		if dec.Hash(HashSeed) != g.hash {
			t.Errorf("%s: decoded value hashes differently after its input buffer was overwritten", g.name)
		}
	}

	if String("").Equal(Null) || Null.Equal(String("")) || String("").Kind() == KindNull {
		t.Error(`String("") must not equal Null`)
	}
}

// TestHashRowGoldens pins partition assignment: HashRow of three mixed
// rows over all columns and over a reordered column pair, and the rows'
// encoded sizes, as captured at commit 270cf47.
func TestHashRowGoldens(t *testing.T) {
	cases := []struct {
		row          Row
		all, swapped uint64
		encLen       int
	}{
		{Row{Int(7), String("kw:shoes"), Float(0.25), Null, Bool(true)}, 0xea6d878c41766ec0, 0x3b1e93257c9b347c, 26},
		{Row{String(""), Int(math.MinInt64), Float(math.Inf(-1)), String("\xff\xfe\x00")}, 0x7c0bba117856e3ff, 0xbc09d3609d12cdf3, 30},
		{Row{Null, Null, Int(-1), Float(math.NaN()), String(bigString)}, 0xcaa23bf39105ad08, 0xe45c53f0dcfb220f, 70019},
	}
	for i, c := range cases {
		cols := make([]int, len(c.row))
		for j := range cols {
			cols[j] = j
		}
		if got := HashRow(c.row, cols); got != c.all {
			t.Errorf("row %d: HashRow(all) = %#x, want %#x", i, got, c.all)
		}
		if got := HashRow(c.row, []int{1, 0}); got != c.swapped {
			t.Errorf("row %d: HashRow(1,0) = %#x, want %#x", i, got, c.swapped)
		}
		var w Encoder
		w.Row(c.row)
		if RowEncodedLen(c.row) != c.encLen || w.Len() != c.encLen {
			t.Errorf("row %d: RowEncodedLen = %d, encoded %d, want %d", i, RowEncodedLen(c.row), w.Len(), c.encLen)
		}
		d := NewDecoder(bytes.Clone(w.Bytes()))
		if got := d.Row(); !got.Equal(c.row) && i != 2 { // row 2 holds a NaN, unequal to itself
			t.Errorf("row %d: decoded row differs", i)
		}
	}
}

// rowsEqual compares row slices by Row.Equal.
func rowsEqual(a, b []Row) bool { return slices.EqualFunc(a, b, Row.Equal) }

// TestRowsEqualComparesWholeStrings: two rows differing only in the second
// byte of a string are unequal. reflect.DeepEqual follows Value's data
// pointer and compares one byte, so it calls them equal.
func TestRowsEqualComparesWholeStrings(t *testing.T) {
	a := []Row{{Int(1), String("ab")}}
	b := []Row{{Int(1), String("ac")}}
	if rowsEqual(a, b) {
		t.Error(`rowsEqual: "ab" and "ac" compare equal`)
	}
	if !rowsEqual(a, []Row{{Int(1), String("a" + "b")}}) {
		t.Error("rowsEqual: equal rows compare unequal")
	}
	if rowsEqual(a, append(b, Row{})) || rowsEqual(a, []Row{{Int(1)}}) {
		t.Error("rowsEqual: length mismatch compares equal")
	}
	if !rowsEqual(nil, []Row{}) {
		t.Error("rowsEqual: nil and empty must compare equal")
	}
}

// TestRowsEqualTellsTaggedKindsApart: Null and Bool(false) are both a
// pointer to a zero tag byte and a zero payload, so reflect.DeepEqual,
// which follows the pointers, calls the two rows equal. Row.Equal does not.
func TestRowsEqualTellsTaggedKindsApart(t *testing.T) {
	a, b := []Row{{Int(1), Null}}, []Row{{Int(1), Bool(false)}}
	if rowsEqual(a, b) {
		t.Error("rowsEqual: Null and Bool(false) compare equal")
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("reflect.DeepEqual now tells Null from Bool(false); update this test and the Value doc")
	}
}
