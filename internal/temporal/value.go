// Package temporal implements a single-node temporal data-stream engine
// (DSMS) in the style of Microsoft StreamInsight, as required by the TiMR
// framework (Chandramouli, Goldstein, Duan; ICDE 2012).
//
// The engine processes events carrying validity lifetimes [LE, RE) under
// snapshot semantics: operator output is defined purely in terms of the
// temporal relation of the input, independent of physical arrival time.
// This property — the "temporal algebra" of the paper — is what lets TiMR
// run the same continuous query over offline map-reduce partitions and over
// live feeds with identical results.
//
// The package has three layers:
//
//   - values and rows: a compact tagged-union Value, Schema, Row;
//   - logical plans: a Plan tree built with a fluent builder (see plan.go,
//     builder.go), the unit TiMR annotates, fragments and optimizes;
//   - physical operators: push-based incremental operators implementing
//     Sink (see operator files), compiled from plans by Compile.
package temporal

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"
)

// Kind enumerates the dynamic type of a Value.
type Kind uint8

// Value kinds. KindNull marks absent values (e.g. unmatched outer columns).
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a compact tagged union holding one column value in 16 bytes:
// a pointer word p and a payload word n. p carries the kind:
//
//   - an int's p is nil, and n holds its int64 bits;
//   - null, float and bool point at their own byte of the package's tags
//     array; n holds a float's math.Float64bits or a bool's 0/1 (0 for null);
//   - a string's p is its data pointer and n its length; the empty string
//     points at tags' KindString byte, since unsafe.StringData("") may be nil.
//
// The zero Value is therefore Int(0), not Null: a row of ints holds only
// nil pointer words, which the garbage collector and the write barrier
// skip without a lookup. Tagging ints too would keep "zero is null" but
// make every int's pointer word one the GC must look up. Null is the
// exported variable, never Value{}.
//
// Using a concrete struct (rather than interface{}) keeps rows free of
// per-value heap allocations on the engine's hot paths. With a data
// pointer inside, == would compare string addresses: the zero-size func
// array makes Value non-comparable, so == and map keys do not compile.
// Use Equal. This file is the only one that builds a Value from its
// words or reads its kind from p.
type Value struct {
	_ [0]func()
	p *byte
	n uint64
}

// tags holds the byte each pointer-tagged kind points at, indexed by
// Kind. Ints are nil and never point here; tags[KindString] is the empty
// string's byte, so that every string's p is non-nil.
var tags [KindBool + 1]byte

// Int returns an integer value.
func Int(v int64) Value { return Value{n: uint64(v)} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{p: &tags[KindFloat], n: math.Float64bits(v)} }

// String returns a string value. The value shares v's bytes.
func String(v string) Value {
	if len(v) == 0 {
		return Value{p: &tags[KindString]}
	}
	return Value{p: unsafe.StringData(v), n: uint64(len(v))}
}

// Bool returns a boolean value.
func Bool(v bool) Value {
	var n uint64
	if v {
		n = 1
	}
	return Value{p: &tags[KindBool], n: n}
}

// Null is the null value.
var Null = Value{p: &tags[KindNull]}

// bitsValue returns the value of kind k, which is not KindString, whose
// payload word is n: the inverse of reading v.n for the codec.
func bitsValue(k Kind, n uint64) Value {
	if k == KindInt {
		return Value{n: n}
	}
	return Value{p: &tags[k], n: n}
}

// Kind reports the dynamic kind of v.
func (v Value) Kind() Kind {
	if v.p == nil {
		return KindInt
	}
	if d := uintptr(unsafe.Pointer(v.p)) - uintptr(unsafe.Pointer(&tags)); d < uintptr(len(tags)) {
		return Kind(d)
	}
	return KindString
}

// AsInt returns the integer payload. It panics if v is not an int; engine
// code paths validate kinds at plan-compile time, so a panic here indicates
// a schema bug, not a data error.
func (v Value) AsInt() int64 {
	if v.p != nil {
		v.badKind("AsInt")
	}
	return int64(v.n)
}

// AsFloat returns the float payload, widening ints.
func (v Value) AsFloat() float64 {
	switch v.p {
	case &tags[KindFloat]:
		return math.Float64frombits(v.n)
	case nil:
		return float64(int64(v.n))
	}
	v.badKind("AsFloat")
	return 0
}

// AsString returns the string payload.
func (v Value) AsString() string {
	if v.Kind() != KindString {
		v.badKind("AsString")
	}
	return v.str()
}

// str rebuilds the string a KindString value was made from.
func (v Value) str() string { return unsafe.String(v.p, int(v.n)) }

// AsBool returns the boolean payload.
func (v Value) AsBool() bool {
	if v.p != &tags[KindBool] {
		v.badKind("AsBool")
	}
	return v.n != 0
}

// badKind panics for an accessor called on a value of another kind. It is
// out of line so that the accessors stay small enough to inline.
func (v Value) badKind(op string) {
	panic("temporal: " + op + " on " + v.Kind().String())
}

// Equal reports deep equality of two values (kind and payload). Floats
// compare by value: -0 equals +0 and NaN equals nothing. Ints, the common
// case, are decided inline; every other pair goes to equalTagged.
func (v Value) Equal(o Value) bool {
	if v.p == nil { // an int equals only an int
		return o.p == nil && v.n == o.n
	}
	return v.equalTagged(o)
}

// equalTagged is Equal for a v that is not an int. Values of one tag
// share p, and so do strings with the same bytes; any other pair is equal
// only as two strings of the same length and content.
func (v Value) equalTagged(o Value) bool {
	if v.p == o.p {
		if v.p == &tags[KindFloat] {
			return math.Float64frombits(v.n) == math.Float64frombits(o.n)
		}
		return v.n == o.n // null, bool, or one string's bytes
	}
	return v.n == o.n && o.p != nil && v.Kind() == KindString && o.Kind() == KindString && v.str() == o.str()
}

// Compare orders values of the same kind: -1, 0, +1. Nulls sort first;
// cross-kind comparison orders by kind (stable but arbitrary), which keeps
// sort-based operators total.
func (v Value) Compare(o Value) int {
	if v.p == o.p && v.p != &tags[KindFloat] {
		// Two ints, nulls or bools, or strings of one data pointer,
		// where the shorter is a prefix of the longer.
		return cmp.Compare(int64(v.n), int64(o.n))
	}
	k, ok := v.Kind(), o.Kind()
	if k != ok {
		return cmp.Compare(k, ok)
	}
	switch k {
	case KindFloat:
		a, b := math.Float64frombits(v.n), math.Float64frombits(o.n)
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0 // equal, or a NaN: it ties with every float
	case KindString:
		return strings.Compare(v.str(), o.str())
	default: // null, bool
		return cmp.Compare(int64(v.n), int64(o.n))
	}
}

// compareTotal is the canonical order of values: Compare, made a total
// order. Where Compare ties two floats of different bits — −0 and +0, a
// NaN and any float — IEEE-754 totalOrder decides (−NaN < … < −0 < +0 <
// … < +NaN): the order of their bits as int64s once a negative float's
// magnitude bits are flipped. Values that tie are then the same value.
func (v Value) compareTotal(o Value) int {
	if c := v.Compare(o); c != 0 || v.p != &tags[KindFloat] || o.p != v.p || v.n == o.n {
		return c
	}
	a, b := int64(v.n), int64(o.n)
	return cmp.Compare(a^int64(uint64(a>>63)>>1), b^int64(uint64(b>>63)>>1))
}

// ints returns v's and o's payloads as int64s, and whether both are ints,
// so that a caller comparing many decides the common case inline.
func (v Value) ints(o Value) (int64, int64, bool) {
	return int64(v.n), int64(o.n), v.p == nil && o.p == nil
}

// same reports whether v and o have the same words: the same kind and
// payload bits, or one string's bytes.
func (v Value) same(o Value) bool { return v.p == o.p && v.n == o.n }

const fnvPrime = 1099511628211

// Hash mixes v into a 64-bit FNV-1a state: the kind, then the payload
// word, or a string's bytes. Used for partitioning and for hash synopses
// in joins and group-apply.
func (v Value) Hash(h uint64) uint64 {
	if v.p == nil {
		return ((h^uint64(KindInt))*fnvPrime ^ v.n) * fnvPrime
	}
	return v.hashTagged(h)
}

// hashTagged is Hash for a value that is not an int.
func (v Value) hashTagged(h uint64) uint64 {
	k := v.Kind()
	h = (h ^ uint64(k)) * fnvPrime
	if k != KindString {
		return (h ^ v.n) * fnvPrime
	}
	s := v.str()
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// String renders the value for debugging and experiment tables.
func (v Value) String() string {
	switch v.Kind() {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(int64(v.n), 10)
	case KindFloat:
		return strconv.FormatFloat(math.Float64frombits(v.n), 'g', 6, 64)
	case KindString:
		return v.str()
	case KindBool:
		return strconv.FormatBool(v.n != 0)
	}
	return "?"
}

// HashSeed is the initial state for Value.Hash chains.
const HashSeed uint64 = 14695981039346656037

// HashRow hashes the given columns of a row, for partitioning. It folds
// each value's self-contained hash (Value.Hash from HashSeed) into a
// running state with HashCombine rather than chaining one FNV state
// through all values. Partition assignment, and with it every bench
// digest, depends on this exact fold.
func HashRow(r Row, cols []int) uint64 {
	h := HashSeed
	for _, c := range cols {
		h = HashCombine(h, r[c].Hash(HashSeed))
	}
	return h
}

// HashCombine folds one value hash into a running row-hash state.
func HashCombine(h, x uint64) uint64 {
	return (h ^ x) * fnvPrime
}
