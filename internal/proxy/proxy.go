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
	"sync"
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

// Binder materializes received generic objects into locally
// registered conformant Go types — the substitute for "the different
// classes and interfaces that implement the types can be downloaded
// and loaded into the memory in order to deserialize cleanly the
// object" (Section 6.2).
type Binder struct {
	reg     *registry.Registry
	checker *conform.Checker

	mu       sync.RWMutex
	mappings map[string]*conform.Mapping // srcName|srcIdentity|targetName -> mapping

	// lastMapping is a single-entry memo over mappingForRef keyed by
	// the exact (source ref, target description pointer) pair: the
	// steady-state receive path asks for the same mapping on every
	// message, and the map lookup's concatenated key is the only
	// allocation left on that path. lastResolver memoizes the pinned
	// field-resolver closure the same way.
	lastMapping  atomic.Pointer[mappingMemo]
	lastResolver atomic.Pointer[resolverMemo]
}

// resolverMemo is one memoized FieldResolverFor closure.
type resolverMemo struct {
	src typedesc.TypeRef
	fn  wire.FieldResolver
}

// mappingMemo is one memoized Mapping result. The target is compared
// by pointer: re-registration installs a fresh description, which
// misses the memo and falls through to mappingFor. The source is the
// full ref — name and identity — so two versions of one logical name
// never share a memo slot.
type mappingMemo struct {
	src    typedesc.TypeRef
	target *typedesc.TypeDescription
	m      *conform.Mapping
}

// NewBinder builds a Binder. The checker must resolve both local
// descriptions (the registry's) and any remote descriptions received
// so far (typically via typedesc.MultiResolver).
func NewBinder(reg *registry.Registry, checker *conform.Checker) *Binder {
	return &Binder{
		reg:      reg,
		checker:  checker,
		mappings: make(map[string]*conform.Mapping),
	}
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
	entry, ok := b.reg.Lookup(expected)
	if !ok {
		return nil, nil, fmt.Errorf("%w: no local implementation registered for %s", ErrNotBindable, expected)
	}
	m, err := b.mappingForRef(src, entry.Description)
	if err != nil {
		return nil, nil, err
	}
	out, err := wire.ToGo(obj, reflect.PtrTo(entry.Type), b.FieldResolverFor(src))
	if err != nil {
		return nil, nil, fmt.Errorf("proxy: bind %s as %s: %w", obj.TypeName, expected.Name, err)
	}
	return out, m, nil
}

// FieldResolver exposes the binder's mapped field resolution for use
// with wire codecs directly (the transport layer decodes invocation
// arguments this way).
func (b *Binder) FieldResolver() wire.FieldResolver { return b.resolveField }

// Mapping exposes the memoized conformance mapping Bind would apply
// to objects of the named source type materialized as the target
// description. The compiled receive path needs it without a generic
// object in hand; a non-nil error means the source does not conform
// and Bind would refuse it too. Name-only resolution: the source
// resolves to the latest version of its name — callers holding a full
// ref (the envelope's) should use MappingRef.
func (b *Binder) Mapping(sourceName string, target *typedesc.TypeDescription) (*conform.Mapping, error) {
	return b.MappingRef(typedesc.TypeRef{Name: sourceName}, target)
}

// MappingRef is Mapping with the source pinned by full type
// reference: the identity resolves the exact version of the source
// description, and the memo is keyed per (source ref, target), so
// coexisting versions of one logical name get distinct mappings.
func (b *Binder) MappingRef(src typedesc.TypeRef, target *typedesc.TypeDescription) (*conform.Mapping, error) {
	if mm := b.lastMapping.Load(); mm != nil && mm.src == src && mm.target == target {
		return mm.m, nil
	}
	m, err := b.mappingForRef(src, target)
	if err == nil {
		b.lastMapping.Store(&mappingMemo{src: src, target: target, m: m})
	}
	return m, err
}

// BindValue materializes any generic value (object, list, map or
// primitive) into the given Go type with mapped field names.
func (b *Binder) BindValue(v wire.Value, t reflect.Type) (interface{}, error) {
	return wire.ToGo(v, t, b.resolveField)
}

// resolveField is the wire.FieldResolver consulting conformance
// mappings per (source type, target type) pair.
func (b *Binder) resolveField(target reflect.Type, source *wire.Object, field string) string {
	return b.resolveFieldRef(typedesc.TypeRef{}, target, source, field)
}

// FieldResolverFor returns a field resolver with the payload's root
// type pinned to src: objects carrying src's bare name resolve
// through src's exact version, while nested objects of other names
// fall back to name resolution. The resolver is memoized per ref so
// the compiled receive path allocates nothing in steady state.
func (b *Binder) FieldResolverFor(src typedesc.TypeRef) wire.FieldResolver {
	if mm := b.lastResolver.Load(); mm != nil && mm.src == src {
		return mm.fn
	}
	fn := func(target reflect.Type, source *wire.Object, field string) string {
		return b.resolveFieldRef(src, target, source, field)
	}
	b.lastResolver.Store(&resolverMemo{src: src, fn: fn})
	return fn
}

func (b *Binder) resolveFieldRef(src typedesc.TypeRef, target reflect.Type, source *wire.Object, field string) string {
	if source == nil || source.TypeName == "" {
		return field
	}
	targetName := typedesc.CanonicalName(target)
	if source.TypeName == targetName {
		return field
	}
	td, err := b.reg.Resolve(typedesc.TypeRef{Name: targetName})
	if err != nil {
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

// mappingForRef returns (and memoizes) the conformance mapping from
// the source ref onto the target description. The memo key carries
// the source identity, so coexisting versions of one name hold
// separate mappings; a bare name keys (and resolves) as the latest
// version, the pre-versioning behavior.
func (b *Binder) mappingForRef(src typedesc.TypeRef, target *typedesc.TypeDescription) (*conform.Mapping, error) {
	key := src.Name + "|" + src.Identity.String() + "|" + target.Name
	b.mu.RLock()
	m, ok := b.mappings[key]
	b.mu.RUnlock()
	if ok {
		return m, nil
	}

	r, err := b.checker.CheckRefs(src, target.Ref())
	if err != nil {
		return nil, fmt.Errorf("proxy: check %s vs %s: %w", src.Name, target.Name, err)
	}
	if !r.Conformant {
		return nil, fmt.Errorf("%w: %s does not conform to %s: %s",
			ErrNotBindable, src.Name, target.Name, r.Reason)
	}
	b.mu.Lock()
	b.mappings[key] = r.Mapping
	b.mu.Unlock()
	return r.Mapping, nil
}
