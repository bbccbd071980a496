// Package typedesc implements the type representation of Pragmatic
// Type Interoperability (ICDCS 2003, Section 5): a TypeDescription is
// built by introspection, carries the structure of a type — its name,
// identity, supertypes, interfaces, fields, method signatures and
// constructors — and is deliberately *non-recursive*: members refer to
// other types only through a TypeRef (name + identity), never through
// a nested description. Nested descriptions are resolved on demand
// through a Repository, mirroring the paper's reasons "(1) for saving
// time during the creation of the XML message and (2) for keeping this
// message small because a subtype description might already be
// available at the receiver side".
package typedesc

import (
	"fmt"
	"sort"
	"strings"

	"pti/internal/guid"
)

// Kind classifies the described type. It is deliberately coarser than
// reflect.Kind: the conformance rules only distinguish the shapes
// below.
type Kind int

// Kinds of described types.
const (
	KindInvalid Kind = iota
	KindPrimitive
	KindStruct
	KindInterface
	KindPointer
	KindSlice
	KindArray
	KindMap
	KindFunc
)

var kindNames = map[Kind]string{
	KindInvalid:   "invalid",
	KindPrimitive: "primitive",
	KindStruct:    "struct",
	KindInterface: "interface",
	KindPointer:   "pointer",
	KindSlice:     "slice",
	KindArray:     "array",
	KindMap:       "map",
	KindFunc:      "func",
}

// String returns the lowercase kind name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ParseKind is the inverse of Kind.String. Unknown names map to
// KindInvalid.
func ParseKind(s string) Kind {
	for k, name := range kindNames {
		if name == s {
			return k
		}
	}
	return KindInvalid
}

// TypeRef is a lightweight reference to a type: its canonical name and
// its 128-bit identity. TypeRefs are the only way a TypeDescription
// mentions another type, which keeps descriptions flat (Section 5.2).
type TypeRef struct {
	Name     string
	Identity guid.GUID
}

// IsZero reports whether the reference is empty.
func (r TypeRef) IsZero() bool { return r.Name == "" && r.Identity.IsNil() }

// String renders "Name" or "Name{guid}" when an identity is present.
func (r TypeRef) String() string {
	if r.Identity.IsNil() {
		return r.Name
	}
	return r.Name + "{" + r.Identity.String() + "}"
}

// SameIdentity reports whether both refs carry the same non-nil
// identity — the paper's type equivalence witness.
func (r TypeRef) SameIdentity(o TypeRef) bool {
	return !r.Identity.IsNil() && r.Identity == o.Identity
}

// Field describes one field of a struct type: its name and the
// reference to its type (rule (ii) of Section 4.2 compares fields by
// name and by implicit structural conformance of their types).
type Field struct {
	Name     string
	Type     TypeRef
	Exported bool
}

// Method describes one method signature: name, parameter types and
// return types (rule (iv)). The receiver is implicit.
type Method struct {
	Name    string
	Params  []TypeRef
	Returns []TypeRef
}

// Arity returns the number of parameters.
func (m Method) Arity() int { return len(m.Params) }

// Signature renders a human-readable signature, e.g.
// "GetName() (string)".
func (m Method) Signature() string {
	var sb strings.Builder
	sb.WriteString(m.Name)
	sb.WriteByte('(')
	for i, p := range m.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(p.Name)
	}
	sb.WriteByte(')')
	if len(m.Returns) > 0 {
		sb.WriteString(" (")
		for i, r := range m.Returns {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(r.Name)
		}
		sb.WriteByte(')')
	}
	return sb.String()
}

// Constructor describes one constructor: the paper's rule (v) treats
// constructors like methods without return values. In Go, constructors
// are conventional functions (NewT) registered alongside the type.
type Constructor struct {
	Name   string
	Params []TypeRef
}

// TypeDescription is the flat structural description of one type
// (Section 5.2). It is the unit shipped over the wire as XML and the
// input to the conformance checker.
type TypeDescription struct {
	Name     string
	Identity guid.GUID
	Kind     Kind

	// Elem is the element type for pointer, slice, array and map
	// kinds (the map value type); Key is the map key type; Len is the
	// array length.
	Elem *TypeRef
	Key  *TypeRef
	Len  int

	// Super is the "superclass" reference: in the Go mapping, the
	// first embedded struct type (rule (iii)).
	Super *TypeRef
	// Interfaces are the interface types this type is known to
	// implement, sorted by name for determinism.
	Interfaces []TypeRef

	Fields       []Field
	Methods      []Method
	Constructors []Constructor

	// DownloadPaths are the locations from which the full type
	// description and the implementing code can be fetched
	// (Section 6.1: objects travel with "a description of the
	// download path" only).
	DownloadPaths []string
}

// Ref returns the TypeRef naming this description.
func (d *TypeDescription) Ref() TypeRef {
	return TypeRef{Name: d.Name, Identity: d.Identity}
}

// MethodByName returns the first method with the given name.
func (d *TypeDescription) MethodByName(name string) (Method, bool) {
	for _, m := range d.Methods {
		if m.Name == name {
			return m, true
		}
	}
	return Method{}, false
}

// FieldByName returns the first field with the given name.
func (d *TypeDescription) FieldByName(name string) (Field, bool) {
	for _, f := range d.Fields {
		if f.Name == name {
			return f, true
		}
	}
	return Field{}, false
}

// Equal reports deep equality of two descriptions — the paper's
// equals() on ITypeDescription. Download paths are location metadata,
// not structure, and are excluded.
func Equal(a, b *TypeDescription) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Name != b.Name || a.Identity != b.Identity || a.Kind != b.Kind || a.Len != b.Len {
		return false
	}
	if !refPtrEqual(a.Elem, b.Elem) || !refPtrEqual(a.Key, b.Key) || !refPtrEqual(a.Super, b.Super) {
		return false
	}
	if len(a.Interfaces) != len(b.Interfaces) ||
		len(a.Fields) != len(b.Fields) ||
		len(a.Methods) != len(b.Methods) ||
		len(a.Constructors) != len(b.Constructors) {
		return false
	}
	for i := range a.Interfaces {
		if a.Interfaces[i] != b.Interfaces[i] {
			return false
		}
	}
	for i := range a.Fields {
		if a.Fields[i] != b.Fields[i] {
			return false
		}
	}
	for i := range a.Methods {
		if !methodEqual(a.Methods[i], b.Methods[i]) {
			return false
		}
	}
	for i := range a.Constructors {
		if !ctorEqual(a.Constructors[i], b.Constructors[i]) {
			return false
		}
	}
	return true
}

func refPtrEqual(a, b *TypeRef) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

func methodEqual(a, b Method) bool {
	if a.Name != b.Name || len(a.Params) != len(b.Params) || len(a.Returns) != len(b.Returns) {
		return false
	}
	for i := range a.Params {
		if a.Params[i] != b.Params[i] {
			return false
		}
	}
	for i := range a.Returns {
		if a.Returns[i] != b.Returns[i] {
			return false
		}
	}
	return true
}

func ctorEqual(a, b Constructor) bool {
	if a.Name != b.Name || len(a.Params) != len(b.Params) {
		return false
	}
	for i := range a.Params {
		if a.Params[i] != b.Params[i] {
			return false
		}
	}
	return true
}

// Normalize sorts the order-insensitive parts of a description
// (interfaces by name, constructors by name then arity) so that
// logically equal descriptions compare Equal regardless of
// construction order. Fields and methods keep declaration order, which
// is significant for mapping determinism.
func (d *TypeDescription) Normalize() {
	sort.Slice(d.Interfaces, func(i, j int) bool {
		return d.Interfaces[i].Name < d.Interfaces[j].Name
	})
	sort.Slice(d.Constructors, func(i, j int) bool {
		if d.Constructors[i].Name != d.Constructors[j].Name {
			return d.Constructors[i].Name < d.Constructors[j].Name
		}
		return len(d.Constructors[i].Params) < len(d.Constructors[j].Params)
	})
}

// Clone returns a deep copy of the description.
func (d *TypeDescription) Clone() *TypeDescription {
	if d == nil {
		return nil
	}
	out := *d
	out.Elem = cloneRef(d.Elem)
	out.Key = cloneRef(d.Key)
	out.Super = cloneRef(d.Super)
	out.Interfaces = append([]TypeRef(nil), d.Interfaces...)
	out.Fields = append([]Field(nil), d.Fields...)
	out.Methods = make([]Method, len(d.Methods))
	for i, m := range d.Methods {
		out.Methods[i] = Method{
			Name:    m.Name,
			Params:  append([]TypeRef(nil), m.Params...),
			Returns: append([]TypeRef(nil), m.Returns...),
		}
	}
	out.Constructors = make([]Constructor, len(d.Constructors))
	for i, c := range d.Constructors {
		out.Constructors[i] = Constructor{
			Name:   c.Name,
			Params: append([]TypeRef(nil), c.Params...),
		}
	}
	out.DownloadPaths = append([]string(nil), d.DownloadPaths...)
	return &out
}

func cloneRef(r *TypeRef) *TypeRef {
	if r == nil {
		return nil
	}
	c := *r
	return &c
}
