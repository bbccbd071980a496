package typedesc

import (
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"

	"pti/internal/bufpool"
	"pti/internal/guid"
)

// Option customizes Describe.
type Option func(*builderOptions)

type builderOptions struct {
	interfaces    []reflect.Type
	constructors  []reflect.Type // func types; names parallel in ctorNames
	ctorNames     []string
	downloadPaths []string
	identity      guid.GUID
	name          string
}

// WithInterfaces declares interface types this type is known to
// implement. Interfaces the type does not actually implement are
// silently skipped, so a registry can pass its whole interface set.
func WithInterfaces(ifaces ...reflect.Type) Option {
	return func(o *builderOptions) { o.interfaces = append(o.interfaces, ifaces...) }
}

// WithConstructor declares a constructor function for the type (the
// Go analogue of the paper's constructors, rule (v)). fn must be a
// func whose last (or only) return value is the described type or a
// pointer to it.
func WithConstructor(name string, fn interface{}) Option {
	return func(o *builderOptions) {
		o.constructors = append(o.constructors, reflect.TypeOf(fn))
		o.ctorNames = append(o.ctorNames, name)
	}
}

// WithDownloadPaths attaches download locations for the description
// and the implementing code (Section 6.1).
func WithDownloadPaths(paths ...string) Option {
	return func(o *builderOptions) { o.downloadPaths = append(o.downloadPaths, paths...) }
}

// WithIdentity pins the type identity instead of deriving a
// structural one. Used when re-registering a type whose identity was
// received from a remote peer.
func WithIdentity(id guid.GUID) Option {
	return func(o *builderOptions) { o.identity = id }
}

// WithName overrides the description's name instead of using the Go
// type's canonical name. The identity stays structural, so an evolved
// Go type described under its predecessor's logical name gets the
// same name with a distinct identity — the shape version chains are
// built from.
func WithName(name string) Option {
	return func(o *builderOptions) { o.name = name }
}

// Describe builds the TypeDescription of t by introspection
// (Section 5.1: "the reflective capabilities of the object-oriented
// platform are used"). The resulting description is flat: members
// reference other types only by TypeRef.
//
// Identity is structural by default: two peers independently
// describing structurally identical types derive the same GUID, which
// gives the receiver the "already received before" fast path of
// Section 6.1 without a naming authority.
func Describe(t reflect.Type, opts ...Option) (*TypeDescription, error) {
	if t == nil {
		return nil, errors.New("typedesc: unsupported type: nil type")
	}
	var o builderOptions
	for _, opt := range opts {
		opt(&o)
	}

	kind, err := kindOf(t)
	if err != nil {
		return nil, err
	}

	d := &TypeDescription{
		Name:          CanonicalName(t),
		Kind:          kind,
		DownloadPaths: append([]string(nil), o.downloadPaths...),
	}
	if o.name != "" {
		d.Name = o.name
	}

	switch kind {
	case KindPointer, KindSlice:
		r := RefOf(t.Elem())
		d.Elem = &r
	case KindArray:
		r := RefOf(t.Elem())
		d.Elem = &r
		d.Len = t.Len()
	case KindMap:
		k, v := RefOf(t.Key()), RefOf(t.Elem())
		d.Key = &k
		d.Elem = &v
	case KindStruct:
		describeStruct(t, d)
	case KindInterface:
		describeInterfaceMethods(t, d)
	}

	// Declared interfaces: keep only those actually implemented
	// (checking both T and *T, since pointer receivers extend the
	// method set).
	seen := make(map[string]bool, len(o.interfaces))
	for _, it := range o.interfaces {
		if it == nil || it.Kind() != reflect.Interface {
			continue
		}
		if !t.Implements(it) && !(t.Kind() != reflect.Ptr && reflect.PtrTo(t).Implements(it)) {
			continue
		}
		name := CanonicalName(it)
		if seen[name] {
			continue
		}
		seen[name] = true
		d.Interfaces = append(d.Interfaces, RefOf(it))
	}

	for i, ct := range o.constructors {
		c, err := describeConstructor(o.ctorNames[i], ct, t)
		if err != nil {
			return nil, err
		}
		d.Constructors = append(d.Constructors, c)
	}

	d.Normalize()
	if o.identity.IsNil() {
		d.Identity = identityOf(t)
	} else {
		d.Identity = o.identity
	}
	return d, nil
}

// MustDescribe is Describe for static types known to be supported; it
// panics on error and is intended for tests and examples.
func MustDescribe(t reflect.Type, opts ...Option) *TypeDescription {
	d, err := Describe(t, opts...)
	if err != nil {
		panic(err)
	}
	return d
}

func describeStruct(t reflect.Type, d *TypeDescription) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Anonymous {
			// First embedded struct plays the "superclass" role
			// (rule (iii)); embedded interfaces are declared
			// interfaces.
			ft := f.Type
			if ft.Kind() == reflect.Ptr {
				ft = ft.Elem()
			}
			switch ft.Kind() {
			case reflect.Struct:
				if d.Super == nil {
					r := RefOf(ft)
					d.Super = &r
					continue
				}
			case reflect.Interface:
				d.Interfaces = append(d.Interfaces, RefOf(ft))
				continue
			}
			// Other embedded kinds fall through as ordinary fields.
		}
		d.Fields = append(d.Fields, Field{
			Name:     f.Name,
			Type:     RefOf(f.Type),
			Exported: f.IsExported(),
		})
	}
	// Methods come from the pointer method set (superset of the
	// value method set), excluding promoted methods of the declared
	// superclass so the description stays flat: the supertype's own
	// description carries those.
	describeOwnMethods(t, d)
}

func describeOwnMethods(t reflect.Type, d *TypeDescription) {
	promoted := make(map[string]bool)
	if d.Super != nil {
		if st, ok := lookupByCanonicalName(t, d.Super.Name); ok {
			pt := reflect.PtrTo(st)
			for i := 0; i < pt.NumMethod(); i++ {
				promoted[pt.Method(i).Name] = true
			}
		}
	}
	pt := t
	if pt.Kind() != reflect.Ptr && pt.Kind() != reflect.Interface {
		pt = reflect.PtrTo(t)
	}
	for i := 0; i < pt.NumMethod(); i++ {
		m := pt.Method(i)
		if !m.IsExported() || promoted[m.Name] {
			continue
		}
		d.Methods = append(d.Methods, describeMethod(m.Name, m.Type, true))
	}
}

func describeInterfaceMethods(t reflect.Type, d *TypeDescription) {
	for i := 0; i < t.NumMethod(); i++ {
		m := t.Method(i)
		if !m.IsExported() {
			continue
		}
		d.Methods = append(d.Methods, describeMethod(m.Name, m.Type, false))
	}
}

// describeMethod converts a func type to a Method. hasReceiver
// indicates the first parameter is the receiver and must be skipped
// (true for concrete-type method values, false for interface methods).
func describeMethod(name string, ft reflect.Type, hasReceiver bool) Method {
	start := 0
	if hasReceiver {
		start = 1
	}
	m := Method{Name: name}
	for i := start; i < ft.NumIn(); i++ {
		m.Params = append(m.Params, RefOf(ft.In(i)))
	}
	for i := 0; i < ft.NumOut(); i++ {
		m.Returns = append(m.Returns, RefOf(ft.Out(i)))
	}
	return m
}

func describeConstructor(name string, ft reflect.Type, target reflect.Type) (Constructor, error) {
	if ft == nil || ft.Kind() != reflect.Func {
		return Constructor{}, fmt.Errorf("typedesc: unsupported type: constructor %s is not a func", name)
	}
	if ft.NumOut() == 0 {
		return Constructor{}, fmt.Errorf("typedesc: unsupported type: constructor %s returns nothing", name)
	}
	out := ft.Out(0)
	if out != target && !(out.Kind() == reflect.Ptr && out.Elem() == target) {
		return Constructor{}, fmt.Errorf("typedesc: unsupported type: constructor %s returns %s, not %s",
			name, out, target)
	}
	c := Constructor{Name: name}
	for i := 0; i < ft.NumIn(); i++ {
		c.Params = append(c.Params, RefOf(ft.In(i)))
	}
	return c, nil
}

// lookupByCanonicalName finds the embedded struct type of t whose
// canonical name matches name; used to compute promoted methods.
func lookupByCanonicalName(t reflect.Type, name string) (reflect.Type, bool) {
	if t.Kind() != reflect.Struct {
		return nil, false
	}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.Anonymous {
			continue
		}
		ft := f.Type
		if ft.Kind() == reflect.Ptr {
			ft = ft.Elem()
		}
		if CanonicalName(ft) == name {
			return ft, true
		}
	}
	return nil, false
}

// RefOf returns the TypeRef of t: canonical name plus structural
// identity.
func RefOf(t reflect.Type) TypeRef {
	return TypeRef{Name: CanonicalName(t), Identity: identityOf(t)}
}

// CanonicalName renders the platform-neutral name of t. Named types
// use their bare name (no package path — the paper compares types
// written by different programmers on different platforms, so package
// paths would spuriously distinguish equivalent types); composite
// types render structurally.
func CanonicalName(t reflect.Type) string {
	if t == nil {
		return ""
	}
	if name := t.Name(); name != "" {
		return name
	}
	switch t.Kind() {
	case reflect.Ptr:
		return "*" + CanonicalName(t.Elem())
	case reflect.Slice:
		return "[]" + CanonicalName(t.Elem())
	case reflect.Array:
		return "[" + strconv.Itoa(t.Len()) + "]" + CanonicalName(t.Elem())
	case reflect.Map:
		return "map[" + CanonicalName(t.Key()) + "]" + CanonicalName(t.Elem())
	case reflect.Interface:
		return "interface{}"
	case reflect.Func:
		var sb strings.Builder
		sb.WriteString("func(")
		for i := 0; i < t.NumIn(); i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(CanonicalName(t.In(i)))
		}
		sb.WriteByte(')')
		if t.NumOut() > 0 {
			sb.WriteString(" (")
			for i := 0; i < t.NumOut(); i++ {
				if i > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(CanonicalName(t.Out(i)))
			}
			sb.WriteByte(')')
		}
		return sb.String()
	default:
		return t.Kind().String()
	}
}

// Fingerprint returns the canonical structural string of t used to
// derive its identity GUID. It recurses through the full structure
// (the descriptor itself stays flat; the fingerprint is computed
// locally where the code is available) and is cycle-safe: revisited
// named types render as "ref:Name".
func Fingerprint(t reflect.Type) string {
	buf := bufpool.Get()
	writeFingerprint(buf, t, make(map[reflect.Type]bool))
	s := string(buf.B)
	bufpool.Put(buf)
	return s
}

// identityOf derives t's identity GUID from its fingerprint, rendered
// into a pooled buffer rather than a string.
func identityOf(t reflect.Type) guid.GUID {
	buf := bufpool.Get()
	writeFingerprint(buf, t, make(map[reflect.Type]bool))
	id := guid.DeriveBytes(buf.B)
	bufpool.Put(buf)
	return id
}

func writeFingerprint(sb *bufpool.Buffer, t reflect.Type, visiting map[reflect.Type]bool) {
	if t == nil {
		sb.WriteString("nil")
		return
	}
	if visiting[t] {
		sb.WriteString("ref:")
		sb.WriteString(CanonicalName(t))
		return
	}

	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.String:
		// Named primitives fingerprint by name + base kind so type
		// aliases with distinct names get distinct identities.
		sb.WriteString(CanonicalName(t))
		if t.Name() != t.Kind().String() {
			sb.WriteByte('<')
			sb.WriteString(t.Kind().String())
			sb.WriteByte('>')
		}
		return
	case reflect.Ptr:
		sb.WriteByte('*')
		writeFingerprint(sb, t.Elem(), visiting)
		return
	case reflect.Slice:
		sb.WriteString("[]")
		writeFingerprint(sb, t.Elem(), visiting)
		return
	case reflect.Array:
		sb.WriteByte('[')
		sb.B = strconv.AppendInt(sb.B, int64(t.Len()), 10)
		sb.WriteByte(']')
		writeFingerprint(sb, t.Elem(), visiting)
		return
	case reflect.Map:
		sb.WriteString("map[")
		writeFingerprint(sb, t.Key(), visiting)
		sb.WriteByte(']')
		writeFingerprint(sb, t.Elem(), visiting)
		return
	case reflect.Func:
		visiting[t] = true
		defer delete(visiting, t)
		sb.WriteString("func(")
		for i := 0; i < t.NumIn(); i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			writeFingerprint(sb, t.In(i), visiting)
		}
		sb.WriteString(")(")
		for i := 0; i < t.NumOut(); i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			writeFingerprint(sb, t.Out(i), visiting)
		}
		sb.WriteByte(')')
		return
	case reflect.Interface:
		visiting[t] = true
		defer delete(visiting, t)
		sb.WriteString("interface ")
		sb.WriteString(CanonicalName(t))
		sb.WriteByte('{')
		for i := 0; i < t.NumMethod(); i++ {
			m := t.Method(i)
			sb.WriteString(m.Name)
			sb.WriteByte(':')
			writeFingerprint(sb, m.Type, visiting)
			sb.WriteByte(';')
		}
		sb.WriteByte('}')
		return
	case reflect.Struct:
		visiting[t] = true
		defer delete(visiting, t)
		sb.WriteString("struct ")
		sb.WriteString(CanonicalName(t))
		sb.WriteByte('{')
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.Anonymous {
				sb.WriteString("embed:")
			}
			sb.WriteString(f.Name)
			sb.WriteByte(':')
			writeFingerprint(sb, f.Type, visiting)
			sb.WriteByte(';')
		}
		sb.WriteByte('}')
		// Exported methods (pointer method set), sorted by name for
		// determinism, participate in identity: two types with the
		// same fields but different behaviours must not be
		// equivalent. reflect lists exactly those, already sorted.
		pt := reflect.PtrTo(t)
		sb.WriteByte('[')
		for i := 0; i < pt.NumMethod(); i++ {
			m := pt.Method(i)
			sb.WriteString(m.Name)
			sb.WriteByte(':')
			// Skip the receiver parameter.
			sb.WriteString("func(")
			for i := 1; i < m.Type.NumIn(); i++ {
				if i > 1 {
					sb.WriteByte(',')
				}
				writeFingerprint(sb, m.Type.In(i), visiting)
			}
			sb.WriteString(")(")
			for i := 0; i < m.Type.NumOut(); i++ {
				if i > 0 {
					sb.WriteByte(',')
				}
				writeFingerprint(sb, m.Type.Out(i), visiting)
			}
			sb.WriteString(");")
		}
		sb.WriteByte(']')
		return
	default:
		sb.WriteString("unsupported:")
		sb.WriteString(t.Kind().String())
	}
}

func kindOf(t reflect.Type) (Kind, error) {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.String:
		return KindPrimitive, nil
	case reflect.Struct:
		return KindStruct, nil
	case reflect.Interface:
		return KindInterface, nil
	case reflect.Ptr:
		return KindPointer, nil
	case reflect.Slice:
		return KindSlice, nil
	case reflect.Array:
		return KindArray, nil
	case reflect.Map:
		return KindMap, nil
	case reflect.Func:
		return KindFunc, nil
	default:
		return KindInvalid, fmt.Errorf("typedesc: unsupported type: %s", t.Kind())
	}
}
