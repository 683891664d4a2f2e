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

// Value is a compact tagged union holding one column value in 24 bytes.
// The zero Value is null. Using a concrete struct (rather than
// interface{}) keeps rows free of per-value heap allocations on the
// engine's hot paths. n carries the int64 bits, the bool (0/1), the
// math.Float64bits of a float, or a string's length; p is the string's
// bytes, nil for every other kind. With a data pointer inside, == would
// compare string addresses: the zero-size func array makes Value
// non-comparable, so == and map keys do not compile. Use Equal.
type Value struct {
	_    [0]func()
	p    *byte
	n    uint64
	kind Kind
}

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, n: uint64(v)} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{kind: KindFloat, n: math.Float64bits(v)} }

// String returns a string value. The value shares v's bytes.
func String(v string) Value {
	return Value{kind: KindString, p: unsafe.StringData(v), n: uint64(len(v))}
}

// Bool returns a boolean value.
func Bool(v bool) Value {
	var n uint64
	if v {
		n = 1
	}
	return Value{kind: KindBool, n: n}
}

// Null is the null value.
var Null = Value{}

// Kind reports the dynamic kind of v.
func (v Value) Kind() Kind { return v.kind }

// AsInt returns the integer payload. It panics if v is not an int; engine
// code paths validate kinds at plan-compile time, so a panic here indicates
// a schema bug, not a data error.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		panic("temporal: AsInt on " + v.kind.String())
	}
	return int64(v.n)
}

// AsFloat returns the float payload, widening ints.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindFloat:
		return math.Float64frombits(v.n)
	case KindInt:
		return float64(int64(v.n))
	default:
		panic("temporal: AsFloat on " + v.kind.String())
	}
}

// AsString returns the string payload.
func (v Value) AsString() string {
	if v.kind != KindString {
		panic("temporal: AsString on " + v.kind.String())
	}
	return v.str()
}

// str rebuilds the string a KindString value was made from.
func (v Value) str() string { return unsafe.String(v.p, int(v.n)) }

// AsBool returns the boolean payload.
func (v Value) AsBool() bool {
	if v.kind != KindBool {
		panic("temporal: AsBool on " + v.kind.String())
	}
	return v.n != 0
}

// Equal reports deep equality of two values (kind and payload). Floats
// compare by value: -0 equals +0 and NaN equals nothing.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindFloat:
		return math.Float64frombits(v.n) == math.Float64frombits(o.n)
	case KindString:
		return v.str() == o.str()
	default: // null, int, bool
		return v.n == o.n
	}
}

// Compare orders values of the same kind: -1, 0, +1. Nulls sort first;
// cross-kind comparison orders by kind (stable but arbitrary), which keeps
// sort-based operators total.
func (v Value) Compare(o Value) int {
	if v.kind != o.kind {
		return cmp.Compare(v.kind, o.kind)
	}
	switch v.kind {
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
	default: // null, int, bool
		return cmp.Compare(int64(v.n), int64(o.n))
	}
}

// Hash mixes v into a 64-bit FNV-1a state. Used for partitioning and for
// hash synopses in joins and group-apply.
func (v Value) Hash(h uint64) uint64 {
	const prime = 1099511628211
	h ^= uint64(v.kind)
	h *= prime
	if v.kind == KindString {
		s := v.str()
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime
		}
		return h
	}
	h ^= v.n
	h *= prime
	return h
}

// String renders the value for debugging and experiment tables.
func (v Value) String() string {
	switch v.kind {
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
	const prime = 1099511628211
	return (h ^ x) * prime
}
