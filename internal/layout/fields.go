package layout

import (
	"sort"

	"ccl/internal/cclerr"
)

// Field is one named member of a structure layout: the unit the
// paper's field-level transformations (hot/cold structure splitting,
// field reordering, §3.1) reason about. Offsets are relative to the
// element base.
type Field struct {
	Name   string `json:"name"`
	Offset int64  `json:"offset"`
	Size   int64  `json:"size"`
}

// End returns the exclusive end offset of the field.
func (f Field) End() int64 { return f.Offset + f.Size }

// FieldMap describes a structure's member layout — element size plus
// fields sorted by offset — so that a byte offset inside an element
// resolves to the member that owns it. The profiler (internal/profile)
// uses field maps registered with telemetry regions to attribute every
// sampled cache miss to structure.field, which is exactly the
// measurement structure splitting and reordering decisions need.
type FieldMap struct {
	// Struct names the structure ("bst-node"); reports render fields
	// as "struct.field".
	Struct string `json:"struct"`
	// Size is the element size in bytes (the allocation stride).
	Size int64 `json:"size"`
	// Fields are the members, sorted by offset, non-overlapping,
	// all inside [0, Size). Gaps are padding and resolve to no field.
	Fields []Field `json:"fields"`
}

// NewFieldMap validates and returns a field map. Fields are sorted by
// offset; a non-positive element or field size, a field outside the
// element, or overlapping fields fail with cclerr.ErrInvalidArg.
func NewFieldMap(structName string, size int64, fields ...Field) (FieldMap, error) {
	if size <= 0 {
		return FieldMap{}, cclerr.Errorf(cclerr.ErrInvalidArg,
			"layout: field map %q: element size %d must be positive", structName, size)
	}
	fs := append([]Field(nil), fields...)
	sort.Slice(fs, func(i, j int) bool { return fs[i].Offset < fs[j].Offset })
	for i, f := range fs {
		if f.Size <= 0 || f.Offset < 0 || f.End() > size {
			return FieldMap{}, cclerr.Errorf(cclerr.ErrInvalidArg,
				"layout: field map %q: field %q [%d,%d) outside element of %d bytes",
				structName, f.Name, f.Offset, f.End(), size)
		}
		if i > 0 && fs[i-1].End() > f.Offset {
			return FieldMap{}, cclerr.Errorf(cclerr.ErrInvalidArg,
				"layout: field map %q: field %q overlaps %q", structName, f.Name, fs[i-1].Name)
		}
	}
	return FieldMap{Struct: structName, Size: size, Fields: fs}, nil
}

// MustFieldMap is NewFieldMap for static layouts declared in code.
//
// Panic justification: field maps are compile-time structure
// descriptions (trees, olden apps); an invalid one is a programming
// error on the level of a bad struct definition.
func MustFieldMap(structName string, size int64, fields ...Field) FieldMap {
	fm, err := NewFieldMap(structName, size, fields...)
	if err != nil {
		panic(err)
	}
	return fm
}
