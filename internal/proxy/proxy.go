// Package proxy implements the dynamic proxies of Pragmatic Type
// Interoperability (ICDCS 2003, Section 6): once a received object's
// type is found to conform to a type of interest, every interaction
// with the object goes through a proxy that interposes the
// conformance mapping — renaming methods, permuting arguments and
// translating field accesses. This is the Go analogue of .NET's
// RealProxy / Java's java.lang.reflect.Proxy, and the invocation path
// whose overhead the paper measures in Section 7.1.
//
// Go cannot synthesize interface implementations at runtime, so the
// proxy exposes an explicit Call/Get/Set surface; Bind additionally
// materializes a received generic object into a locally registered
// conformant type, the analogue of deserializing after the assembly
// download.
package proxy

import (
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"sync/atomic"

	"pti/internal/conform"
	"pti/internal/registry"
	"pti/internal/typedesc"
	"pti/internal/wire"
)

// Errors reported by proxies.
var (
	ErrNoSuchMethod = errors.New("proxy: no such method")
	ErrNoSuchField  = errors.New("proxy: no such field")
	ErrBadArguments = errors.New("proxy: bad arguments")
	ErrNotBindable  = errors.New("proxy: object not bindable")
)

// Invoker is a dynamic proxy over a concrete Go value: calls are
// expressed in the *expected* type's vocabulary and forwarded to the
// candidate implementation through the mapping. Dispatch runs through
// a compiled invocation plan (conform.Plan): name resolution,
// method-index lookup and argument permutation are decided once at
// construction, so the per-call cost is the reflect.Call itself.
type Invoker struct {
	target reflect.Value
	elem   reflect.Value // struct value for field access (if any)
	m      *conform.Mapping
	plan   *conform.Plan
}

// NewInvoker wraps target (a struct pointer, struct value, or any
// method-bearing value) with a conformance mapping. A nil mapping
// means identity: method and field names pass through unchanged. The
// invocation plan is compiled here; use NewInvokerWithPlan to reuse a
// plan cached alongside a conformance result.
func NewInvoker(target interface{}, m *conform.Mapping) (*Invoker, error) {
	return NewInvokerWithPlan(target, m, nil)
}

// NewInvokerWithPlan wraps target like NewInvoker but reuses plan when
// it was compiled for target's normalized (pointer) type; a nil or
// mismatched plan is compiled fresh.
func NewInvokerWithPlan(target interface{}, m *conform.Mapping, plan *conform.Plan) (*Invoker, error) {
	if target == nil {
		return nil, fmt.Errorf("%w: nil target", ErrBadArguments)
	}
	rv := reflect.ValueOf(target)
	// Methods with pointer receivers require an addressable value;
	// re-box struct values behind a fresh pointer.
	if rv.Kind() != reflect.Ptr {
		p := reflect.New(rv.Type())
		p.Elem().Set(rv)
		rv = p
	}
	if plan == nil || plan.Target != rv.Type() || plan.Mapping != m {
		compiled, err := conform.CompilePlan(rv.Type(), m)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadArguments, err)
		}
		plan = compiled
	}
	inv := &Invoker{target: rv, m: m, plan: plan}
	if rv.Kind() == reflect.Ptr && rv.Elem().Kind() == reflect.Struct {
		inv.elem = rv.Elem()
	}
	return inv, nil
}

// Target returns the wrapped value (always a pointer).
func (p *Invoker) Target() interface{} { return p.target.Interface() }

// Mapping returns the conformance mapping in force.
func (p *Invoker) Mapping() *conform.Mapping { return p.m }

// Plan returns the compiled invocation plan in force.
func (p *Invoker) Plan() *conform.Plan { return p.plan }

// Call invokes the expected-type method name with expected-order
// arguments, translating both through the compiled plan, and returns
// the results. No name resolution happens here: the method index,
// parameter types and argument permutation were fixed at compile time.
func (p *Invoker) Call(method string, args ...interface{}) ([]interface{}, error) {
	mp, ok := p.plan.Method(method)
	if !ok {
		if p.plan.Passthrough() {
			return nil, fmt.Errorf("%w: %s (mapped to %s)", ErrNoSuchMethod, method, method)
		}
		return nil, fmt.Errorf("%w: %s (no mapping)", ErrNoSuchMethod, method)
	}
	if mp.Index < 0 {
		return nil, fmt.Errorf("%w: %s (mapped to %s)", ErrNoSuchMethod, method, mp.Candidate)
	}
	if mp.NumIn != len(args) {
		return nil, fmt.Errorf("%w: %s takes %d args, got %d", ErrBadArguments, mp.Candidate, mp.NumIn, len(args))
	}
	fn := p.target.Method(mp.Index)

	ordered := args
	if len(mp.Perm) == len(args) && len(args) > 0 {
		ordered = make([]interface{}, len(args))
		for i, slot := range mp.Perm {
			ordered[slot] = args[i]
		}
	}
	in := make([]reflect.Value, len(ordered))
	for i, a := range ordered {
		av, err := wire.Coerce(a, mp.In[i])
		if err != nil {
			return nil, fmt.Errorf("%w: %s arg %d: %v", ErrBadArguments, mp.Candidate, i, err)
		}
		in[i] = av
	}
	out := fn.Call(in)
	results := make([]interface{}, len(out))
	for i, o := range out {
		results[i] = o.Interface()
	}
	return results, nil
}

// CallReflective is the uncompiled reference path: it re-resolves the
// method mapping by name and looks the method up via reflection on
// every invocation, exactly as the proxy worked before invocation
// plans. It is retained as the semantic baseline for the plan
// equivalence property tests and the benchmark suite.
func (p *Invoker) CallReflective(method string, args ...interface{}) ([]interface{}, error) {
	name := method
	perm := []int(nil)
	if p.m != nil {
		mm, ok := p.m.MethodFor(method)
		if !ok {
			return nil, fmt.Errorf("%w: %s (no mapping)", ErrNoSuchMethod, method)
		}
		name = mm.Candidate
		perm = mm.Perm
	}
	fn := p.target.MethodByName(name)
	if !fn.IsValid() {
		return nil, fmt.Errorf("%w: %s (mapped to %s)", ErrNoSuchMethod, method, name)
	}
	ft := fn.Type()
	if ft.NumIn() != len(args) {
		return nil, fmt.Errorf("%w: %s takes %d args, got %d", ErrBadArguments, name, ft.NumIn(), len(args))
	}

	ordered := args
	if len(perm) == len(args) && len(args) > 0 {
		ordered = make([]interface{}, len(args))
		for i, slot := range perm {
			ordered[slot] = args[i]
		}
	}
	in := make([]reflect.Value, len(ordered))
	for i, a := range ordered {
		av, err := wire.Coerce(a, ft.In(i))
		if err != nil {
			return nil, fmt.Errorf("%w: %s arg %d: %v", ErrBadArguments, name, i, err)
		}
		in[i] = av
	}
	out := fn.Call(in)
	results := make([]interface{}, len(out))
	for i, o := range out {
		results[i] = o.Interface()
	}
	return results, nil
}

// Get reads the expected-type field name through the mapping.
func (p *Invoker) Get(field string) (interface{}, error) {
	fv, err := p.fieldByExpectedName(field)
	if err != nil {
		return nil, err
	}
	return fv.Interface(), nil
}

// Set writes the expected-type field name through the mapping.
func (p *Invoker) Set(field string, value interface{}) error {
	fv, err := p.fieldByExpectedName(field)
	if err != nil {
		return err
	}
	av, err := wire.Coerce(value, fv.Type())
	if err != nil {
		return fmt.Errorf("%w: field %s: %v", ErrBadArguments, field, err)
	}
	fv.Set(av)
	return nil
}

func (p *Invoker) fieldByExpectedName(field string) (reflect.Value, error) {
	if !p.elem.IsValid() {
		return reflect.Value{}, fmt.Errorf("%w: target is not a struct", ErrNoSuchField)
	}
	if fp, ok := p.plan.Field(field); ok {
		if fp.Index == nil {
			return reflect.Value{}, fmt.Errorf("%w: %s (mapped to %s)", ErrNoSuchField, field, fp.Candidate)
		}
		return p.elem.FieldByIndex(fp.Index), nil
	}
	if !p.plan.Passthrough() {
		return reflect.Value{}, fmt.Errorf("%w: %s (no mapping)", ErrNoSuchField, field)
	}
	// Passthrough fallback: promoted (embedded) fields are not
	// pre-compiled; resolve them dynamically as before.
	fv := p.elem.FieldByName(field)
	if !fv.IsValid() {
		return reflect.Value{}, fmt.Errorf("%w: %s (mapped to %s)", ErrNoSuchField, field, field)
	}
	return fv, nil
}

// View is a read-only mapped view over a generic (unbound) object:
// the receiver can inspect fields in the expected type's vocabulary
// even when no local implementation exists to bind to. Methods cannot
// run without code — that is exactly the paper's reason for the code
// download step.
type View struct {
	obj *wire.Object
	// names is the field mapping compiled into a direct lookup table
	// (expected -> candidate); passthrough mirrors conform.Plan.
	names       map[string]string
	passthrough bool
}

// NewView wraps a generic object with a mapping (nil = identity). The
// field-name translation table is compiled here so each Get is a
// single map lookup instead of a linear mapping scan.
func NewView(obj *wire.Object, m *conform.Mapping) (*View, error) {
	if obj == nil {
		return nil, fmt.Errorf("%w: nil object", ErrBadArguments)
	}
	v := &View{obj: obj, passthrough: m == nil || m.Identity}
	if m != nil && len(m.Fields) > 0 {
		v.names = make(map[string]string, len(m.Fields))
		for _, fm := range m.Fields {
			v.names[fm.Expected] = fm.Candidate
		}
	}
	return v, nil
}

// Get reads the expected-type field name.
func (v *View) Get(field string) (interface{}, error) {
	name, ok := v.names[field]
	if !ok {
		if !v.passthrough {
			return nil, fmt.Errorf("%w: %s (no mapping)", ErrNoSuchField, field)
		}
		name = field
	}
	val, ok := v.obj.Field(name)
	if !ok {
		return nil, fmt.Errorf("%w: %s (mapped to %s)", ErrNoSuchField, field, name)
	}
	return val, nil
}

// Object returns the underlying generic object.
func (v *View) Object() *wire.Object { return v.obj }

// Binder materializes received objects into locally registered
// conformant Go types — the substitute for "the different classes and
// interfaces that implement the types can be downloaded and loaded
// into the memory in order to deserialize cleanly the object"
// (Section 6.2). Conformance mappings live in the checker's
// conformance cache (which WithCacheCapacity bounds); the binder
// itself remembers only the pair it bound last.
type Binder struct {
	cat     *registry.Catalog
	checker *conform.Checker

	// fp fingerprints this binder's field resolution for the wire
	// programs' materializer tables: binders over different
	// registries can map one source type differently, so their tables
	// must never be conflated on a shared program.
	fp string

	// resolve is the binder's field resolution for sources named by
	// name only, bound once so DecodeValue does not allocate.
	resolve wire.FieldResolver

	// last memoizes the (source ref, target description) pair bound
	// most recently: the steady-state receive path binds one pair on
	// every message and then needs neither a checker lookup nor a
	// fresh resolver closure.
	last atomic.Pointer[bindMemo]

	// value memoizes DecodeValue's fingerprint; only gen and fp are set.
	value atomic.Pointer[bindMemo]
}

// bindMemo is one memoized binding pair. The target is compared by
// pointer: re-registration installs a fresh description, which misses
// the memo. The source is the full ref — name and identity — so two
// versions of one logical name never share a slot; a name-only one
// also keys on the description generation (0 for an identity).
type bindMemo struct {
	src    typedesc.TypeRef
	gen    uint64
	target *typedesc.TypeDescription
	m      *conform.Mapping
	// resolve is the field resolver pinned to this pair: the root
	// object maps through m, nested objects through their own pairs.
	// fp is its materializer fingerprint.
	resolve wire.FieldResolver
	fp      string
}

// binderSeq hands every binder a distinct fingerprint.
var binderSeq atomic.Uint64

// NewBinder builds a Binder over a participant's catalog. The checker
// must resolve through the same catalog, so that the catalog's
// generation covers every description the binding consults.
func NewBinder(cat *registry.Catalog, checker *conform.Checker) *Binder {
	b := &Binder{
		cat:     cat,
		checker: checker,
		fp:      "binder-" + strconv.FormatUint(binderSeq.Add(1), 10),
	}
	b.resolve = func(target reflect.Type, source *wire.Object, field string) string {
		return b.resolveFieldRef(typedesc.TypeRef{}, target, source, field)
	}
	return b
}

// Bind materializes obj into the Go type registered for the expected
// reference. The object's own type (obj.TypeName) must conform to the
// expected type; its mapping drives field translation, recursively
// for nested objects.
func (b *Binder) Bind(obj *wire.Object, expected typedesc.TypeRef) (interface{}, *conform.Mapping, error) {
	if obj == nil {
		return nil, nil, fmt.Errorf("%w: nil object", ErrBadArguments)
	}
	return b.BindRef(obj, typedesc.TypeRef{Name: obj.TypeName}, expected)
}

// BindRef is Bind with the object's source type pinned by full
// reference (typically the envelope's): the identity selects the
// exact version of the source description instead of the latest one
// sharing its name.
func (b *Binder) BindRef(obj *wire.Object, src typedesc.TypeRef, expected typedesc.TypeRef) (interface{}, *conform.Mapping, error) {
	if obj == nil {
		return nil, nil, fmt.Errorf("%w: nil object", ErrBadArguments)
	}
	entry, ok := b.cat.Registry().Lookup(expected)
	if !ok {
		return nil, nil, fmt.Errorf("%w: no local implementation registered for %s", ErrNotBindable, expected)
	}
	return b.bindEntry(obj, src, entry)
}

// Deserialize materializes an encoded payload, whose envelope names
// its source type by the full ref src (name and identity), as entry's
// Go type. It is the one receive-side bind: the transport's deliveries
// and the facade's Unmarshal both run through it. The steady state is
// compiled end to end: entry's wire program decodes the payload
// straight into a fresh instance, with field names resolved through
// the mapping of exactly src's version. Anything the compiled decoder
// cannot reproduce with certainty (including a payload whose root
// type name differs from src's) falls back to the generic decode and
// BindRef, which stay the authority for values, errors and
// conformance. compiled reports whether the compiled decode ran.
func (b *Binder) Deserialize(codec wire.Codec, entry *registry.Entry, payload []byte, src typedesc.TypeRef) (out interface{}, m *conform.Mapping, compiled bool, err error) {
	if v, m, ok := b.DeserializeCompiled(codec, entry, payload, src); ok {
		return v, m, true, nil
	}
	obj, err := DecodeObject(codec, payload)
	if err != nil {
		return nil, nil, false, err
	}
	out, m, err = b.bindEntry(obj, src, entry)
	return out, m, false, err
}

// DecodeObject is the generic payload decode: payload parsed into the
// generic model, whose root must be an object. Deserialize's fallback
// runs it before binding, and a transport delivery with no local
// implementation to bind to runs it to build a View.
func DecodeObject(codec wire.Codec, payload []byte) (*wire.Object, error) {
	gv, err := codec.DecodeGeneric(payload)
	if err != nil {
		return nil, fmt.Errorf("proxy: decode payload: %w", err)
	}
	obj, ok := gv.(*wire.Object)
	if !ok {
		return nil, fmt.Errorf("%w: payload is %T, not an object", ErrNotBindable, gv)
	}
	return obj, nil
}

// DeserializeCompiled is Deserialize's compiled half alone: it decodes
// payload as entry's Go type through entry's wire program, with field
// names mapped from src's version, and reports ok=false — leaving the
// generic decode and bind to the caller — whenever the pair does not
// conform, no program exists, or the compiled decoder declines the
// payload (including one whose root type name differs from src's).
func (b *Binder) DeserializeCompiled(codec wire.Codec, entry *registry.Entry, payload []byte, src typedesc.TypeRef) (interface{}, *conform.Mapping, bool) {
	mm, err := b.memoFor(src, entry)
	if err != nil {
		return nil, nil, false
	}
	prog, err := entry.Program()
	if err != nil {
		return nil, nil, false
	}
	v, ok := codec.DecodeObjectFast(prog, payload, reflect.PtrTo(entry.Type), mm.resolve, mm.fp, src.Name)
	if !ok {
		return nil, nil, false
	}
	return v, mm.m, true
}

// bindEntry materializes obj, of source type src, as entry's Go type.
func (b *Binder) bindEntry(obj *wire.Object, src typedesc.TypeRef, entry *registry.Entry) (interface{}, *conform.Mapping, error) {
	mm, err := b.memoFor(src, entry)
	if err != nil {
		return nil, nil, err
	}
	out, err := wire.ToGo(obj, reflect.PtrTo(entry.Type), mm.resolve)
	if err != nil {
		return nil, nil, fmt.Errorf("proxy: bind %s as %s: %w", obj.TypeName, entry.Description.Name, err)
	}
	return out, mm.m, nil
}

// memoFor returns the mapping, pinned resolver and fingerprint for
// binding src as entry's type, from the single-entry memo when the
// pair repeats. A non-conformant pair is an error and is not memoized.
// The fingerprint of a source pinned by identity names the binder and
// the identity; a name-only source maps through whatever description
// is latest, so its fingerprint names the description generation too.
func (b *Binder) memoFor(src typedesc.TypeRef, entry *registry.Entry) (*bindMemo, error) {
	var gen uint64
	if src.Identity.IsNil() {
		gen = b.generation()
	}
	if mm := b.last.Load(); mm != nil && mm.src == src && mm.gen == gen && mm.target == entry.Description {
		return mm, nil
	}
	m, err := b.mappingForRef(src, entry.Description)
	if err != nil {
		return nil, err
	}
	mm := &bindMemo{src: src, gen: gen, target: entry.Description, m: m}
	mm.resolve = func(t reflect.Type, source *wire.Object, field string) string {
		// The root object maps through the pair's own mapping, which
		// also holds when src is another version of entry's name.
		if t == entry.Type && source != nil && source.TypeName == src.Name {
			if fm, ok := m.FieldFor(field); ok {
				return fm.Candidate
			}
			return field
		}
		return b.resolveFieldRef(src, t, source, field)
	}
	if src.Identity.IsNil() {
		mm.fp = b.fp + "|" + src.Name + "@" + strconv.FormatUint(gen, 10)
	} else {
		mm.fp = b.fp + "|" + src.Identity.String()
	}
	b.last.Store(mm)
	return mm, nil
}

// DecodeValue materializes data, one encoded value of any shape (an
// invocation argument), as type t through prog (nil: reflectively),
// mapping every object's fields through the binder. Its sources are
// named by name only, so its fingerprint names the generation.
func (b *Binder) DecodeValue(codec wire.Codec, prog *wire.Program, data []byte, t reflect.Type) (interface{}, error) {
	gen := b.generation()
	mm := b.value.Load()
	if mm == nil || mm.gen != gen {
		mm = &bindMemo{gen: gen, fp: b.fp + "@" + strconv.FormatUint(gen, 10)}
		b.value.Store(mm)
	}
	return codec.DecodeCompiled(prog, data, t, b.resolve, mm.fp)
}

// generation is the catalog's: it changes whenever a description the
// binder's resolution consults could. Read before resolving, it files
// a table built while a description arrives under the older
// generation.
func (b *Binder) generation() uint64 { return b.cat.Generation() }

// resolveFieldRef maps the target's field name onto the source
// object's: objects named like src resolve through src's exact
// version, other (nested) objects through the latest version of
// their name.
func (b *Binder) resolveFieldRef(src typedesc.TypeRef, target reflect.Type, source *wire.Object, field string) string {
	if source == nil || source.TypeName == "" {
		return field
	}
	td := b.targetDescription(target)
	if td == nil || source.TypeName == td.Name {
		return field
	}
	ref := typedesc.TypeRef{Name: source.TypeName}
	if source.TypeName == src.Name {
		ref = src
	}
	m, err := b.mappingForRef(ref, td)
	if err != nil || m == nil {
		return field
	}
	if fm, ok := m.FieldFor(field); ok {
		return fm.Candidate
	}
	return field
}

// targetDescription returns the local description of a Go bind
// target: its registered entry's, whose name WithTypeName may have
// set apart from the Go spelling, else the description of its Go name
// (a nested type described alongside a registered one); nil if none.
func (b *Binder) targetDescription(t reflect.Type) *typedesc.TypeDescription {
	if e, ok := b.cat.Registry().LookupGo(t); ok {
		return e.Description
	}
	td, _ := b.cat.Registry().Descriptions().Lookup(typedesc.TypeRef{Name: typedesc.CanonicalName(t)})
	return td
}

// mappingForRef returns the conformance mapping from the source ref
// onto the target description. The checker's conformance cache is its
// memo, keyed by both identities, so coexisting versions of one name
// hold separate mappings; a bare name resolves as the latest version,
// the pre-versioning behavior.
func (b *Binder) mappingForRef(src typedesc.TypeRef, target *typedesc.TypeDescription) (*conform.Mapping, error) {
	r, err := b.checker.CheckRefs(src, target.Ref())
	if err != nil {
		return nil, fmt.Errorf("proxy: check %s vs %s: %w", src.Name, target.Name, err)
	}
	if !r.Conformant {
		return nil, fmt.Errorf("%w: %s does not conform to %s: %s",
			ErrNotBindable, src.Name, target.Name, r.Reason)
	}
	return r.Mapping, nil
}
