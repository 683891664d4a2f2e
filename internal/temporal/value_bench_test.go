package temporal

import (
	"strings"
	"testing"
)

var benchSink uint64

// BenchmarkValueOps times the per-value operations every operator runs —
// Kind, AsInt, Equal, Compare and HashRow — over 8-column rows: one of
// ints only (most BT rows) and one mixing ints with a float, two strings
// and a null. Each op/row is one pass over the row's columns. Equal and
// Compare run against a copy whose strings live at other addresses, so
// strings are compared byte by byte.
func BenchmarkValueOps(b *testing.B) {
	ints := Row{Int(1), Int(42), Int(-7), Int(1 << 40), Int(0), Int(3), Int(99), Int(5)}
	mixed := Row{Int(1), Float(0.25), String("kw:shoes"), Null, Int(42), String("ad:7"), Int(-3), Float(2)}
	cols := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, tc := range []struct {
		name string
		row  Row
	}{{"ints", ints}, {"mixed", mixed}} {
		row := tc.row
		twin := make(Row, len(row))
		var intCols []int
		for i, v := range row {
			twin[i] = v
			switch v.Kind() {
			case KindString:
				twin[i] = String(strings.Clone(v.AsString()))
			case KindInt:
				intCols = append(intCols, i)
			}
		}
		b.Run(tc.name+"/Kind", func(b *testing.B) {
			b.ReportAllocs()
			var s uint64
			for range b.N {
				for _, v := range row {
					s += uint64(v.Kind())
				}
			}
			benchSink += s
		})
		b.Run(tc.name+"/AsInt", func(b *testing.B) {
			b.ReportAllocs()
			var s uint64
			for range b.N {
				for _, c := range intCols {
					s += uint64(row[c].AsInt())
				}
			}
			benchSink += s
		})
		b.Run(tc.name+"/Equal", func(b *testing.B) {
			b.ReportAllocs()
			var s uint64
			for range b.N {
				for i, v := range row {
					if v.Equal(twin[i]) {
						s++
					}
				}
			}
			benchSink += s
		})
		b.Run(tc.name+"/Compare", func(b *testing.B) {
			b.ReportAllocs()
			var s uint64
			for range b.N {
				for i, v := range row {
					s += uint64(v.Compare(twin[i]) + 1)
				}
			}
			benchSink += s
		})
		b.Run(tc.name+"/HashRow", func(b *testing.B) {
			b.ReportAllocs()
			var s uint64
			for range b.N {
				s += HashRow(row, cols)
			}
			benchSink += s
		})
	}
}
