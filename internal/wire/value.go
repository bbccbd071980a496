// Package wire implements the object serialization layer of
// Pragmatic Type Interoperability (ICDCS 2003, Section 6): objects
// are converted to a self-describing generic value model and encoded
// either as SOAP-style XML (with id/href multi-reference encoding, as
// in SOAP Section 5) or as a compact binary stream. Both encodings
// carry type and field names, so a receiver can deserialize an object
// of a type it has never seen into a generic Object — the substitute
// for the paper's runtime assembly loading — and
// later bind it to a conformant local type.
package wire

import (
	"encoding"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
)

var (
	textMarshalerType   = reflect.TypeOf((*encoding.TextMarshaler)(nil)).Elem()
	textUnmarshalerType = reflect.TypeOf((*encoding.TextUnmarshaler)(nil)).Elem()
)

// Value is one node of the generic object model. The dynamic type of
// a Value is one of:
//
//	nil, bool, int64, uint64, float64, string, []byte,
//	*Object, *List, *Map, *Ref
type Value interface{}

// Object is a generic struct value: a type name plus named fields in
// declaration order. ID is non-zero when the object is the target of
// a reference (multi-ref encoding).
type Object struct {
	TypeName string
	ID       int
	Fields   []FieldValue
}

// FieldValue is one named field of an Object.
type FieldValue struct {
	Name  string
	Value Value
}

// Field returns the value of the named field.
func (o *Object) Field(name string) (Value, bool) {
	for _, f := range o.Fields {
		if f.Name == name {
			return f.Value, true
		}
	}
	return nil, false
}

// SetField replaces or appends the named field.
func (o *Object) SetField(name string, v Value) {
	for i, f := range o.Fields {
		if f.Name == name {
			o.Fields[i].Value = v
			return
		}
	}
	o.Fields = append(o.Fields, FieldValue{Name: name, Value: v})
}

// List is a generic slice or array value.
type List struct {
	ElemType string
	Items    []Value
}

// Map is a generic map value with deterministic entry order.
type Map struct {
	KeyType  string
	ElemType string
	Entries  []Entry
}

// Entry is one key/value pair of a Map.
type Entry struct {
	Key   Value
	Value Value
}

// Ref is a reference to an Object already emitted in the same stream
// (SOAP href). It preserves aliasing and cycles.
type Ref struct {
	ID int
}

// Errors shared by the encoders.
var (
	// ErrUnsupportedValue is returned when a Go value cannot be
	// represented in the generic model.
	ErrUnsupportedValue = errors.New("wire: unsupported value")
	// ErrBadStream is returned when a byte stream cannot be decoded.
	ErrBadStream = errors.New("wire: bad stream")
	// ErrTargetMismatch is returned when a generic value cannot be
	// materialized into the requested Go type.
	ErrTargetMismatch = errors.New("wire: value does not fit target type")
)

// FromGo converts a Go value into the generic model. Pointers that
// appear more than once (aliasing, cycles) become Object IDs plus
// Refs. Unexported fields are skipped — the descriptor layer flags
// them, and Go reflection cannot read them portably (documented
// substitution for the paper's "including the private fields").
func FromGo(v interface{}) (Value, error) {
	enc := &goEncoder{seen: make(map[uintptr]*Object)}
	if v == nil {
		return nil, nil
	}
	return enc.encode(reflect.ValueOf(v))
}

type goEncoder struct {
	seen   map[uintptr]*Object
	nextID int
}

func (e *goEncoder) encode(rv reflect.Value) (Value, error) {
	// Types with a canonical text form (time.Time, net.IP, GUIDs...)
	// serialize as their text: their fields are typically unexported
	// and would otherwise be lost silently.
	if tv, ok, err := marshalText(rv); ok {
		return tv, err
	}
	switch rv.Kind() {
	case reflect.Bool:
		return rv.Bool(), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return rv.Int(), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return rv.Uint(), nil
	case reflect.Float32, reflect.Float64:
		return rv.Float(), nil
	case reflect.String:
		return rv.String(), nil
	case reflect.Ptr:
		if rv.IsNil() {
			return nil, nil
		}
		if rv.Elem().Kind() == reflect.Struct {
			addr := rv.Pointer()
			if obj, ok := e.seen[addr]; ok {
				if obj.ID == 0 {
					e.nextID++
					obj.ID = e.nextID
				}
				return &Ref{ID: obj.ID}, nil
			}
			obj := &Object{TypeName: canonicalTypeName(rv.Elem().Type())}
			e.seen[addr] = obj
			if err := e.encodeStructInto(rv.Elem(), obj); err != nil {
				return nil, err
			}
			return obj, nil
		}
		return e.encode(rv.Elem())
	case reflect.Struct:
		obj := &Object{TypeName: canonicalTypeName(rv.Type())}
		if err := e.encodeStructInto(rv, obj); err != nil {
			return nil, err
		}
		return obj, nil
	case reflect.Slice:
		if rv.IsNil() {
			return nil, nil
		}
		if rv.Type().Elem().Kind() == reflect.Uint8 {
			out := make([]byte, rv.Len())
			reflect.Copy(reflect.ValueOf(out), rv)
			return out, nil
		}
		return e.encodeList(rv)
	case reflect.Array:
		if rv.Type().Elem().Kind() == reflect.Uint8 {
			out := make([]byte, rv.Len())
			reflect.Copy(reflect.ValueOf(out), rv)
			return out, nil
		}
		return e.encodeList(rv)
	case reflect.Map:
		if rv.IsNil() {
			return nil, nil
		}
		return e.encodeMap(rv)
	case reflect.Interface:
		if rv.IsNil() {
			return nil, nil
		}
		return e.encode(rv.Elem())
	default:
		return nil, fmt.Errorf("%w: %s", ErrUnsupportedValue, rv.Kind())
	}
}

func (e *goEncoder) encodeStructInto(rv reflect.Value, obj *Object) error {
	t := rv.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		fv, err := e.encode(rv.Field(i))
		if err != nil {
			return fmt.Errorf("field %s.%s: %w", obj.TypeName, f.Name, err)
		}
		obj.Fields = append(obj.Fields, FieldValue{Name: f.Name, Value: fv})
	}
	return nil
}

func (e *goEncoder) encodeList(rv reflect.Value) (Value, error) {
	list := &List{
		ElemType: canonicalTypeName(rv.Type().Elem()),
		Items:    make([]Value, 0, rv.Len()),
	}
	for i := 0; i < rv.Len(); i++ {
		item, err := e.encode(rv.Index(i))
		if err != nil {
			return nil, err
		}
		list.Items = append(list.Items, item)
	}
	return list, nil
}

func (e *goEncoder) encodeMap(rv reflect.Value) (Value, error) {
	m := &Map{
		KeyType:  canonicalTypeName(rv.Type().Key()),
		ElemType: canonicalTypeName(rv.Type().Elem()),
		Entries:  make([]Entry, 0, rv.Len()),
	}
	for _, k := range rv.MapKeys() {
		kv, err := e.encode(k)
		if err != nil {
			return nil, err
		}
		vv, err := e.encode(rv.MapIndex(k))
		if err != nil {
			return nil, err
		}
		m.Entries = append(m.Entries, Entry{Key: kv, Value: vv})
	}
	// Deterministic order: two encodings of the same map must be
	// byte-identical (benchmarks and tests depend on it).
	sort.Slice(m.Entries, func(i, j int) bool {
		return fmt.Sprint(m.Entries[i].Key) < fmt.Sprint(m.Entries[j].Key)
	})
	return m, nil
}

// FieldResolver maps a target (expected) field name to the source
// field name inside a generic Object, given the target Go type and
// the source object (whose TypeName identifies the remote type). The
// identity resolver is used for same-type deserialization;
// conformance mappings supply cross-type resolvers (proxy.Bind).
type FieldResolver func(target reflect.Type, source *Object, field string) string

// IdentityFields is the default FieldResolver.
func IdentityFields(_ reflect.Type, _ *Object, name string) string { return name }

// ToGo materializes a generic value into a freshly allocated Go value
// of type t. Missing source fields become zero values (the stream may
// come from an older or differently shaped — but conformant — type);
// extra source fields are ignored.
func ToGo(v Value, t reflect.Type, resolve FieldResolver) (interface{}, error) {
	if resolve == nil {
		resolve = IdentityFields
	}
	dec := &goMaterializer{resolve: resolve, objects: make(map[int]reflect.Value)}
	out := reflect.New(t).Elem()
	if err := dec.materialize(v, out); err != nil {
		return nil, err
	}
	return out.Interface(), nil
}

type goMaterializer struct {
	resolve FieldResolver
	objects map[int]reflect.Value // ID -> pointer value
}

func (d *goMaterializer) materialize(v Value, out reflect.Value) error {
	if v == nil {
		// Leave the zero value in place.
		return nil
	}
	if s, ok := v.(string); ok {
		if done, err := unmarshalText(s, out); done {
			return err
		}
	}
	switch out.Kind() {
	case reflect.Ptr:
		if r, ok := v.(*Ref); ok {
			prev, found := d.objects[r.ID]
			if !found {
				return fmt.Errorf("%w: dangling ref %d", ErrBadStream, r.ID)
			}
			if !prev.Type().AssignableTo(out.Type()) {
				return fmt.Errorf("%w: ref %d has type %s, want %s",
					ErrTargetMismatch, r.ID, prev.Type(), out.Type())
			}
			out.Set(prev)
			return nil
		}
		p := reflect.New(out.Type().Elem())
		if obj, ok := v.(*Object); ok && obj.ID != 0 {
			d.objects[obj.ID] = p
		}
		if err := d.materialize(v, p.Elem()); err != nil {
			return err
		}
		out.Set(p)
		return nil
	case reflect.Bool:
		b, ok := v.(bool)
		if !ok {
			return mismatch(v, out)
		}
		out.SetBool(b)
		return nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		i, ok := asInt64(v)
		if !ok || out.OverflowInt(i) {
			return mismatch(v, out)
		}
		out.SetInt(i)
		return nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		u, ok := asUint64(v)
		if !ok || out.OverflowUint(u) {
			return mismatch(v, out)
		}
		out.SetUint(u)
		return nil
	case reflect.Float32, reflect.Float64:
		f, ok := asFloat64(v)
		if !ok {
			return mismatch(v, out)
		}
		out.SetFloat(f)
		return nil
	case reflect.String:
		s, ok := v.(string)
		if !ok {
			return mismatch(v, out)
		}
		out.SetString(s)
		return nil
	case reflect.Struct:
		obj, ok := v.(*Object)
		if !ok {
			return mismatch(v, out)
		}
		return d.materializeStruct(obj, out)
	case reflect.Slice:
		if b, ok := v.([]byte); ok && out.Type().Elem().Kind() == reflect.Uint8 {
			buf := make([]byte, len(b))
			copy(buf, b)
			out.SetBytes(buf)
			return nil
		}
		list, ok := v.(*List)
		if !ok {
			return mismatch(v, out)
		}
		s := reflect.MakeSlice(out.Type(), len(list.Items), len(list.Items))
		for i, item := range list.Items {
			if err := d.materialize(item, s.Index(i)); err != nil {
				return err
			}
		}
		out.Set(s)
		return nil
	case reflect.Array:
		if b, ok := v.([]byte); ok && out.Type().Elem().Kind() == reflect.Uint8 {
			if len(b) != out.Len() {
				return fmt.Errorf("%w: byte array length %d, want %d", ErrTargetMismatch, len(b), out.Len())
			}
			reflect.Copy(out, reflect.ValueOf(b))
			return nil
		}
		list, ok := v.(*List)
		if !ok || len(list.Items) != out.Len() {
			return mismatch(v, out)
		}
		for i, item := range list.Items {
			if err := d.materialize(item, out.Index(i)); err != nil {
				return err
			}
		}
		return nil
	case reflect.Map:
		m, ok := v.(*Map)
		if !ok {
			return mismatch(v, out)
		}
		mv := reflect.MakeMapWithSize(out.Type(), len(m.Entries))
		for _, e := range m.Entries {
			k := reflect.New(out.Type().Key()).Elem()
			if err := d.materialize(e.Key, k); err != nil {
				return err
			}
			val := reflect.New(out.Type().Elem()).Elem()
			if err := d.materialize(e.Value, val); err != nil {
				return err
			}
			mv.SetMapIndex(k, val)
		}
		out.Set(mv)
		return nil
	case reflect.Interface:
		if out.Type().NumMethod() != 0 {
			return fmt.Errorf("%w: cannot materialize into non-empty interface %s",
				ErrTargetMismatch, out.Type())
		}
		out.Set(reflect.ValueOf(v))
		return nil
	default:
		return fmt.Errorf("%w: target kind %s", ErrTargetMismatch, out.Kind())
	}
}

func (d *goMaterializer) materializeStruct(obj *Object, out reflect.Value) error {
	t := out.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		src := d.resolve(t, obj, f.Name)
		fv, ok := obj.Field(src)
		if !ok {
			// Tolerant: absent source fields stay zero.
			continue
		}
		if err := d.materialize(fv, out.Field(i)); err != nil {
			return fmt.Errorf("field %s.%s: %w", t.Name(), f.Name, err)
		}
	}
	return nil
}

// marshalText renders rv through encoding.TextMarshaler when the
// type opts in. Plain strings and types whose kind already encodes
// losslessly are excluded so the fast paths stay in effect.
func marshalText(rv reflect.Value) (Value, bool, error) {
	if !rv.IsValid() {
		return nil, false, nil
	}
	t := rv.Type()
	// Only struct and array kinds risk silent loss; primitives,
	// slices and maps encode natively even if they also implement
	// TextMarshaler.
	if t.Kind() != reflect.Struct && t.Kind() != reflect.Array {
		return nil, false, nil
	}
	var m encoding.TextMarshaler
	switch {
	case t.Implements(textMarshalerType):
		m = rv.Interface().(encoding.TextMarshaler)
	case rv.CanAddr() && reflect.PtrTo(t).Implements(textMarshalerType):
		m = rv.Addr().Interface().(encoding.TextMarshaler)
	case !rv.CanAddr() && reflect.PtrTo(t).Implements(textMarshalerType):
		p := reflect.New(t)
		p.Elem().Set(rv)
		m = p.Interface().(encoding.TextMarshaler)
	default:
		return nil, false, nil
	}
	text, err := m.MarshalText()
	if err != nil {
		return nil, true, fmt.Errorf("wire: marshal text for %s: %w", t, err)
	}
	return string(text), true, nil
}

// unmarshalText feeds a string into a TextUnmarshaler target. It only
// claims the value when the target opted in and is not a plain
// string-kind value.
func unmarshalText(s string, out reflect.Value) (bool, error) {
	t := out.Type()
	if t.Kind() != reflect.Struct && t.Kind() != reflect.Array {
		return false, nil
	}
	if !out.CanAddr() {
		return false, nil
	}
	p := out.Addr()
	if !p.Type().Implements(textUnmarshalerType) {
		return false, nil
	}
	um := p.Interface().(encoding.TextUnmarshaler)
	if err := um.UnmarshalText([]byte(s)); err != nil {
		return true, fmt.Errorf("wire: unmarshal text into %s: %w", t, err)
	}
	return true, nil
}

func mismatch(v Value, out reflect.Value) error {
	return fmt.Errorf("%w: %T into %s", ErrTargetMismatch, v, out.Type())
}

func asInt64(v Value) (int64, bool) {
	switch n := v.(type) {
	case int64:
		return n, true
	case uint64:
		if n > math.MaxInt64 {
			return 0, false
		}
		return int64(n), true
	case float64:
		if n == math.Trunc(n) && n >= math.MinInt64 && n <= math.MaxInt64 {
			return int64(n), true
		}
		return 0, false
	default:
		return 0, false
	}
}

func asUint64(v Value) (uint64, bool) {
	switch n := v.(type) {
	case uint64:
		return n, true
	case int64:
		if n < 0 {
			return 0, false
		}
		return uint64(n), true
	case float64:
		if n == math.Trunc(n) && n >= 0 && n <= math.MaxUint64 {
			return uint64(n), true
		}
		return 0, false
	default:
		return 0, false
	}
}

func asFloat64(v Value) (float64, bool) {
	switch n := v.(type) {
	case float64:
		return n, true
	case int64:
		return float64(n), true
	case uint64:
		return float64(n), true
	default:
		return 0, false
	}
}

// canonicalTypeName matches typedesc.CanonicalName for the kinds the
// wire layer supports, without importing typedesc (wire is a lower
// layer).
func canonicalTypeName(t reflect.Type) string {
	if name := t.Name(); name != "" {
		return name
	}
	switch t.Kind() {
	case reflect.Ptr:
		return "*" + canonicalTypeName(t.Elem())
	case reflect.Slice:
		return "[]" + canonicalTypeName(t.Elem())
	case reflect.Array:
		return fmt.Sprintf("[%d]%s", t.Len(), canonicalTypeName(t.Elem()))
	case reflect.Map:
		return "map[" + canonicalTypeName(t.Key()) + "]" + canonicalTypeName(t.Elem())
	case reflect.Interface:
		return "interface{}"
	default:
		return t.Kind().String()
	}
}
