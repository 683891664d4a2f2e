package temporal

import (
	"fmt"
	"strings"
)

// Field is one named, typed column of a schema.
type Field struct {
	Name string
	Kind Kind
}

// Schema describes the payload columns of a stream. Schemas are immutable
// after construction; operators derive new schemas rather than mutate.
type Schema struct {
	fields []Field
	index  map[string]int
}

// NewSchema builds a schema from fields. Duplicate names panic: schemas are
// authored in code, so duplicates are programming errors.
func NewSchema(fields ...Field) *Schema {
	s := &Schema{fields: fields, index: make(map[string]int, len(fields))}
	for i, f := range fields {
		if _, dup := s.index[f.Name]; dup {
			panic("temporal: duplicate column " + f.Name)
		}
		s.index[f.Name] = i
	}
	return s
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.fields) }

// Field returns the i-th field.
func (s *Schema) Field(i int) Field { return s.fields[i] }

// Fields returns a copy of the field list.
func (s *Schema) Fields() []Field { return append([]Field(nil), s.fields...) }

// MustIndex returns the position of the named column, panicking if absent.
func (s *Schema) MustIndex(name string) int {
	i, ok := s.index[name]
	if !ok {
		panic("temporal: no column " + name + " in " + s.String())
	}
	return i
}

// Indexes resolves several column names at once.
func (s *Schema) Indexes(names ...string) []int {
	out := make([]int, len(names))
	for i, n := range names {
		out[i] = s.MustIndex(n)
	}
	return out
}

// Has reports whether the named column exists.
func (s *Schema) Has(name string) bool { _, ok := s.index[name]; return ok }

// Project returns a schema of the named columns, in order.
func (s *Schema) Project(names ...string) *Schema {
	fields := make([]Field, len(names))
	for i, n := range names {
		fields[i] = s.fields[s.MustIndex(n)]
	}
	return NewSchema(fields...)
}

// Concat returns the concatenation of two schemas. Name collisions on the
// right side are disambiguated with the given prefix (e.g. "right.").
func (s *Schema) Concat(o *Schema, rightPrefix string) *Schema {
	fields := append([]Field(nil), s.fields...)
	for _, f := range o.fields {
		name := f.Name
		if _, dup := s.index[name]; dup {
			name = rightPrefix + name
		}
		fields = append(fields, Field{Name: name, Kind: f.Kind})
	}
	return NewSchema(fields...)
}

// Equal reports whether two schemas have identical names and kinds.
func (s *Schema) Equal(o *Schema) bool {
	if s.Len() != o.Len() {
		return false
	}
	for i := range s.fields {
		if s.fields[i] != o.fields[i] {
			return false
		}
	}
	return true
}

// String renders "name:kind, ..." for diagnostics.
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, f := range s.fields {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%s", f.Name, f.Kind)
	}
	b.WriteByte(')')
	return b.String()
}

// Row is one tuple of payload values, positionally matching a Schema.
type Row []Value

// Clone returns a copy of the row (values are value types; the slice is
// what needs copying).
func (r Row) Clone() Row { return append(Row(nil), r...) }

// Equal reports column-wise equality.
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if !r[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// String renders the row for debugging.
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return "[" + strings.Join(parts, " ") + "]"
}
