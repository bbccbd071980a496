// Package registry is the local "assembly" store of a peer: the Go
// types, constructors and interfaces the peer has implementations
// for, together with their TypeDescriptions and download paths. It
// plays the role of the paper's local assembly cache — the thing the
// receiver consults to decide whether "the corresponding classes or
// interfaces implementing the types are locally available"
// (Section 6.2) — and, since Go cannot load code at run time,
// "downloading the code" becomes binding to an entry registered here.
package registry

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"

	"pti/internal/bufpool"
	"pti/internal/conform"
	"pti/internal/guid"
	"pti/internal/typedesc"
	"pti/internal/wire"
	"pti/internal/xmlenc"
)

// Errors reported by the registry.
var (
	ErrNotRegistered  = errors.New("registry: type not registered")
	ErrBadConstructor = errors.New("registry: bad constructor")
)

// Entry is one registered implementation.
type Entry struct {
	// Type is the Go type implementing the module.
	Type reflect.Type
	// Description is the structural description advertised for the
	// type.
	Description *typedesc.TypeDescription
	// Constructors maps constructor names to callable functions.
	Constructors map[string]reflect.Value
	// DownloadPaths are where remote peers can fetch this type's
	// description and code.
	DownloadPaths []string
	// Version is this entry's position in its logical type's version
	// chain, assigned by Register: monotonically increasing per chain
	// name, starting at 1. Versions coexist — registering an evolved
	// type under the same name (WithTypeName) appends a new version
	// while lookups pinned to the old identity keep resolving.
	Version uint64

	// tombstone marks a version removed by Unregister. The entry
	// stays in its chain (version numbers never reuse) but every
	// lookup skips it. Guarded by the owning registry's mu.
	tombstone bool

	// The identity (passthrough) invocation plan for this entry's
	// pointer type, compiled once on first use. The transport layer
	// and broker pull delivery invokers through here so repeated
	// receptions of a cached type reuse one compiled plan.
	idPlanOnce sync.Once
	idPlan     *conform.Plan
	idPlanErr  error

	// The compiled wire codec program for this entry's type — the
	// serialization counterpart of the invocation plan, compiled once
	// on first use (wire.CompileProgram).
	progOnce sync.Once
	prog     *wire.Program
	progErr  error

	// The marshaled XML type description: immutable once the entry
	// exists, but the seed re-rendered it on every eager send, every
	// type-info reply and every code blob. The code blob is built from
	// it once too.
	descXMLOnce  sync.Once
	descXML      []byte
	descXMLErr   error
	codeBlobOnce sync.Once
	codeBlob     []byte

	// Per-encoding compiled envelope templates plus the envelope's
	// static assembly list (root type + nested struct fields),
	// computed on first send. Re-registering this type builds a fresh
	// Entry, which drops these caches wholesale; re-registering a
	// *nested* type leaves this entry in place, so the snapshot is
	// additionally tagged with the resolver's generation and rebuilt
	// when the registry has changed underneath it.
	envMu         sync.Mutex
	envAssemblies []xmlenc.AssemblyInfo
	envTemplates  map[xmlenc.PayloadEncoding]*xmlenc.EnvelopeTemplate
	envGen        uint64
}

// generationed is implemented by resolvers whose contents can change
// over time (the Registry); the envelope caches use the generation to
// notice re-registrations of nested types.
type generationed interface {
	Generation() uint64
}

// Program returns the compiled wire codec program for this entry's
// type, compiling it on first use. The program is the encode/decode
// fast path SendObject and the remoting layer dispatch through; types
// outside the direct subset still get a (non-direct) program whose
// only job is making the fallback decision once.
func (e *Entry) Program() (*wire.Program, error) {
	e.progOnce.Do(func() {
		// The program's wire root name is the registered logical name
		// (WithTypeName may differ from the Go spelling) so payloads
		// self-describe under the same name the envelope references.
		e.prog, e.progErr = wire.CompileProgramNamed(e.Type, e.Description.Name)
	})
	return e.prog, e.progErr
}

// DescriptionXML returns the entry's marshaled type description,
// rendering it once.
func (e *Entry) DescriptionXML() ([]byte, error) {
	e.descXMLOnce.Do(func() {
		e.descXML, e.descXMLErr = xmlenc.MarshalDescription(e.Description)
	})
	return e.descXML, e.descXMLErr
}

// CodeBlob returns the entry's code blob — the package's CodeBlob of
// DescriptionXML — building it on first use.
func (e *Entry) CodeBlob() ([]byte, error) {
	xmlBytes, err := e.DescriptionXML()
	if err != nil {
		return nil, err
	}
	e.codeBlobOnce.Do(func() { e.codeBlob = CodeBlob(xmlBytes) })
	return e.codeBlob, nil
}

// codePadding is the simulated assembly size appended to code blobs,
// standing in for real CIL/bytecode.
const codePadding = 4096

// CodeBlob simulates the assembly bytes for a type: its description
// XML (the part a real system would need anyway) followed by
// codePadding zero bytes standing in for executable code. Peers and
// the transport's DescriptionServer serve the same blob.
func CodeBlob(descXML []byte) []byte {
	blob := make([]byte, len(descXML)+codePadding)
	copy(blob, descXML)
	return blob
}

// Assemblies returns the envelope's static assembly list: the root
// type plus every nested struct field type, with their download
// paths. It is computed on first use resolving field types through
// resolver (normally the owning registry) and rebuilt when the
// resolver's generation changes — i.e. when any registration could
// have changed a nested type's download paths.
func (e *Entry) Assemblies(resolver typedesc.Resolver) []xmlenc.AssemblyInfo {
	e.envMu.Lock()
	defer e.envMu.Unlock()
	e.ensureEnvLocked(resolver)
	return e.envAssemblies
}

// ensureEnvLocked (re)builds the assembly snapshot — invalidating any
// compiled templates with it — when absent or stale against the
// resolver's generation.
func (e *Entry) ensureEnvLocked(resolver typedesc.Resolver) {
	var gen uint64
	if g, ok := resolver.(generationed); ok {
		gen = g.Generation()
	}
	if e.envAssemblies == nil || gen != e.envGen {
		e.envAssemblies = e.buildAssembliesLocked(resolver)
		e.envTemplates = nil
		e.envGen = gen
	}
}

func (e *Entry) buildAssembliesLocked(resolver typedesc.Resolver) []xmlenc.AssemblyInfo {
	asm := []xmlenc.AssemblyInfo{
		{Type: e.Description.Ref(), DownloadPaths: e.DownloadPaths},
	}
	// Figure 3: nested types' assembly information rides along.
	for _, f := range e.Description.Fields {
		if d, err := resolver.Resolve(f.Type); err == nil && d.Kind == typedesc.KindStruct {
			asm = append(asm, xmlenc.AssemblyInfo{
				Type:          d.Ref(),
				DownloadPaths: d.DownloadPaths,
			})
		}
	}
	return asm
}

// EnvelopeTemplate returns the compiled envelope template for this
// entry under the given payload encoding, building it (and the
// assembly snapshot) on first use.
func (e *Entry) EnvelopeTemplate(enc xmlenc.PayloadEncoding, resolver typedesc.Resolver) (*xmlenc.EnvelopeTemplate, error) {
	e.envMu.Lock()
	defer e.envMu.Unlock()
	e.ensureEnvLocked(resolver)
	if tpl, ok := e.envTemplates[enc]; ok {
		return tpl, nil
	}
	tpl, err := xmlenc.CompileEnvelopeTemplate(&xmlenc.Envelope{
		Type:       e.Description.Ref(),
		Encoding:   enc,
		Assemblies: e.envAssemblies,
	})
	if err != nil {
		return nil, err
	}
	if e.envTemplates == nil {
		e.envTemplates = make(map[xmlenc.PayloadEncoding]*xmlenc.EnvelopeTemplate, 2)
	}
	e.envTemplates[enc] = tpl
	return tpl, nil
}

// AppendObject appends the hybrid envelope of Figure 3 for v — the
// type reference and download paths around v's codec payload — to dst
// and returns the extended slice. It is the one writer of object
// envelopes: the transport's SendObject and the facade's Marshal both
// write through it, so the two emit the same bytes. The payload is
// encoded through the entry's program (which stamps the registered
// name on compiled and reflective encodes alike) into pooled scratch,
// then the cached template is appended; when dst lacks room it grows
// once, to the exact size.
func (e *Entry) AppendObject(dst []byte, codec wire.Codec, v interface{}, resolver typedesc.Resolver) ([]byte, error) {
	tpl, err := e.EnvelopeTemplate(xmlenc.PayloadEncoding(codec.Name()), resolver)
	if err != nil {
		return dst, fmt.Errorf("registry: marshal envelope: %w", err)
	}
	prog, _ := e.Program() // nil on compile error → reflective fallback
	scratch := bufpool.Get()
	defer bufpool.Put(scratch)
	payload, err := codec.EncodeCompiled(prog, scratch.B, v)
	scratch.B = payload // keep the growth for the next call
	if err != nil {
		return dst, fmt.Errorf("registry: encode object: %w", err)
	}
	if n := tpl.Size(len(payload)); cap(dst)-len(dst) < n {
		grown := make([]byte, len(dst), len(dst)+n)
		copy(grown, dst)
		dst = grown
	}
	return tpl.Append(dst, payload), nil
}

// PlanFor returns the compiled invocation plan for this entry's
// pointer type under mapping m. The identity plan (nil mapping) is
// compiled once and memoized — it is the plan every bound delivery
// dispatches through. Plans for non-nil mappings are compiled fresh
// and deliberately not retained here: mapped plans are memoized
// alongside their conformance results in the checker's cache
// (conform.Checker.PlanFor), which is also what keys them correctly
// per policy.
func (e *Entry) PlanFor(m *conform.Mapping) (*conform.Plan, error) {
	if m == nil {
		e.idPlanOnce.Do(func() {
			e.idPlan, e.idPlanErr = conform.CompilePlan(reflect.PtrTo(e.Type), nil)
		})
		return e.idPlan, e.idPlanErr
	}
	return conform.CompilePlan(reflect.PtrTo(e.Type), m)
}

// Construct invokes the named constructor with the given arguments.
func (e *Entry) Construct(name string, args ...interface{}) (interface{}, error) {
	fn, ok := e.Constructors[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s has no constructor %q", ErrBadConstructor, e.Description.Name, name)
	}
	ft := fn.Type()
	if ft.NumIn() != len(args) {
		return nil, fmt.Errorf("%w: %s takes %d args, got %d", ErrBadConstructor, name, ft.NumIn(), len(args))
	}
	in := make([]reflect.Value, len(args))
	for i, a := range args {
		av, err := wire.Coerce(a, ft.In(i))
		if err != nil {
			return nil, fmt.Errorf("%w: %s arg %d: %v", ErrBadConstructor, name, i, err)
		}
		in[i] = av
	}
	out := fn.Call(in)
	return out[0].Interface(), nil
}

// Registry is the thread-safe store of entries. Its description
// repository doubles as the typedesc.Resolver handed to conformance
// checkers. Every mutation writes through to the backing Store
// (in-memory by default, a FileStore for warm restarts) and is
// published on the store's change feed.
type Registry struct {
	mu     sync.RWMutex
	byID   map[guid.GUID]*Entry // live entries by identity, every version
	byName map[string]*Entry    // latest live entry per chain name
	chains map[string]*chain    // full version history per chain name
	repo   *typedesc.Repository
	ifaces []reflect.Type
	store  Store

	// described holds the Go types describeReachable has walked: each
	// one's description, and those of every type reachable from it,
	// are in repo. A description's identity derives from its Go type
	// alone, and the repository only grows (Unregister keeps
	// descriptions), so Describe on a walked type would only find its
	// identity already there.
	described map[reflect.Type]struct{}

	// gen counts mutations (Register, DeclareInterface, Unregister);
	// entry-level envelope snapshots compare against it to notice
	// nested types changing underneath them, and memoized LookupGo
	// misses use it as their validity token.
	gen atomic.Uint64

	// goMemo caches LookupGo results per Go type: deriving a type's
	// reference fingerprints its whole structure, far too expensive
	// for the per-receive lookups on the compiled path. Hits are
	// validated against their chain's stamp — mutating one type's
	// chain no longer evicts every other type's memo the way the old
	// global-generation check did; misses still key off gen.
	goMemo sync.Map // reflect.Type -> goMemoEntry
}

// chain is the version history of one logical type name. versions is
// ascending by Version and keeps tombstoned entries in place so
// version numbers never reuse.
type chain struct {
	name     string
	versions []*Entry
	// storedBase is the highest version the backing store knew for
	// this name when the chain was first touched — a warm restart
	// continues numbering where the previous incarnation stopped.
	storedBase uint64
	// storedLive maps identity -> stored version for live (non-
	// tombstoned) records loaded from the store, so re-registering a
	// known type after a restart reclaims its old version number.
	storedLive map[string]uint64
	// stamp bumps on every chain mutation; LookupGo memo hits carry
	// the stamp they were computed at.
	stamp atomic.Uint64
}

// latestLive returns the newest non-tombstoned version, or nil.
func (c *chain) latestLive() *Entry {
	for i := len(c.versions) - 1; i >= 0; i-- {
		if !c.versions[i].tombstone {
			return c.versions[i]
		}
	}
	return nil
}

// nextVersion is one past the highest version ever seen, in memory or
// in the store.
func (c *chain) nextVersion() uint64 {
	v := c.storedBase
	if n := len(c.versions); n > 0 && c.versions[n-1].Version > v {
		v = c.versions[n-1].Version
	}
	return v + 1
}

// goMemoEntry is one memoized LookupGo result. A hit (entry non-nil)
// is valid while its chain's stamp is unchanged; a miss is valid
// while the registry's generation is unchanged.
type goMemoEntry struct {
	entry *Entry
	chain *chain
	stamp uint64
}

func (m goMemoEntry) valid(gen uint64) bool {
	if m.chain != nil {
		return m.chain.stamp.Load() == m.stamp
	}
	return m.stamp == gen
}

// Generation returns the registry's mutation counter.
func (r *Registry) Generation() uint64 { return r.gen.Load() }

// New returns an empty Registry backed by an in-memory store.
func New() *Registry {
	r, _ := NewWithStore(NewMemStore())
	return r
}

// NewWithStore returns a Registry backed by s. Descriptions already
// in the store warm the registry's resolver repository (latest live
// version per name wins name lookups), and version numbering
// continues from the store's high-water mark, so a process restarting
// over a FileStore re-registers its types under their old versions
// instead of starting cold. A *CorruptionError from opening s should
// be handled by the caller; records that fail to decode here are
// skipped.
func NewWithStore(s Store) (*Registry, error) {
	if s == nil {
		s = NewMemStore()
	}
	r := &Registry{
		byID:   make(map[guid.GUID]*Entry),
		byName: make(map[string]*Entry),
		chains: make(map[string]*chain),
		repo:   typedesc.NewRepository(),
		store:  s,
	}
	recs, err := s.List(KindDescription)
	if err != nil {
		return nil, fmt.Errorf("registry: warm load: %w", err)
	}
	// Ascending (ref, version) order: later Adds win name resolution,
	// so the latest live version ends up behind each name.
	for _, rec := range recs {
		if rec.Tombstone || len(rec.Data) == 0 {
			continue
		}
		d, err := xmlenc.UnmarshalDescription(rec.Data)
		if err != nil {
			continue
		}
		_ = r.repo.Add(d)
	}
	return r, nil
}

// Store returns the backing store.
func (r *Registry) Store() Store { return r.store }

// Watch subscribes to the registry's change feed: one event per
// mutation (register, new version, unregister tombstone), in total
// order, carrying the affected description record. It is the backing
// store's feed — peers sharing a store see each other's deltas.
func (r *Registry) Watch() (<-chan StoreEvent, func()) { return r.store.Watch() }

// Option customizes a registration.
type Option func(*regOptions)

type regOptions struct {
	ctorNames []string
	ctorFns   []interface{}
	paths     []string
	typeName  string
}

// WithConstructor registers a constructor function under name.
func WithConstructor(name string, fn interface{}) Option {
	return func(o *regOptions) {
		o.ctorNames = append(o.ctorNames, name)
		o.ctorFns = append(o.ctorFns, fn)
	}
}

// WithDownloadPaths attaches download locations advertised with the
// type (Section 6.1).
func WithDownloadPaths(paths ...string) Option {
	return func(o *regOptions) { o.paths = append(o.paths, paths...) }
}

// WithTypeName registers the type under a logical name instead of its
// Go canonical name, placing it in that name's version chain. This is
// how an evolved Go type (a new struct with a new structural
// identity) succeeds an older version of the same logical type:
// register both under one name and they coexist as version 1 and 2.
func WithTypeName(name string) Option {
	return func(o *regOptions) { o.typeName = name }
}

// DeclareInterface registers an interface type so that (a) its
// description resolves and (b) subsequently registered types
// advertise it when they implement it.
func (r *Registry) DeclareInterface(iface interface{}) error {
	t := reflect.TypeOf(iface)
	if t != nil && t.Kind() == reflect.Ptr && t.Elem().Kind() == reflect.Interface {
		t = t.Elem()
	}
	if t == nil || t.Kind() != reflect.Interface {
		return fmt.Errorf("registry: DeclareInterface wants a pointer-to-interface, got %T", iface)
	}
	d, err := typedesc.Describe(t)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ifaces = append(r.ifaces, t)
	r.gen.Add(1)
	return r.repo.Add(d)
}

// Register adds the type of v (an instance, or a reflect.Type) to the
// registry and returns its entry. Nested named struct types reachable
// through exported fields are described and added to the description
// repository automatically, so conformance checks on field types
// resolve without extra registrations.
func (r *Registry) Register(v interface{}, opts ...Option) (*Entry, error) {
	t, ok := v.(reflect.Type)
	if !ok {
		t = reflect.TypeOf(v)
	}
	if t == nil {
		return nil, fmt.Errorf("registry: Register(nil)")
	}
	for t.Kind() == reflect.Ptr {
		t = t.Elem()
	}

	var o regOptions
	for _, opt := range opts {
		opt(&o)
	}

	r.mu.Lock()
	defer r.mu.Unlock()

	descOpts := []typedesc.Option{
		typedesc.WithInterfaces(r.ifaces...),
		typedesc.WithDownloadPaths(o.paths...),
	}
	if o.typeName != "" {
		descOpts = append(descOpts, typedesc.WithName(o.typeName))
	}
	for i, name := range o.ctorNames {
		descOpts = append(descOpts, typedesc.WithConstructor(name, o.ctorFns[i]))
	}
	d, err := typedesc.Describe(t, descOpts...)
	if err != nil {
		return nil, err
	}

	entry := &Entry{
		Type:          t,
		Description:   d,
		Constructors:  make(map[string]reflect.Value, len(o.ctorNames)),
		DownloadPaths: append([]string(nil), o.paths...),
	}
	for i, name := range o.ctorNames {
		fn := reflect.ValueOf(o.ctorFns[i])
		if fn.Kind() != reflect.Func {
			return nil, fmt.Errorf("%w: %s is not a func", ErrBadConstructor, name)
		}
		entry.Constructors[name] = fn
	}

	// Version assignment: re-registering a live identity refreshes
	// that version in place; a known identity from the store reclaims
	// its persisted version; anything else appends the next version.
	c := r.chainLocked(d.Name)
	id := d.Identity.String()
	replaceIdx := -1
	for i, e := range c.versions {
		if !e.tombstone && e.Description.Identity == d.Identity {
			replaceIdx = i
			break
		}
	}
	switch {
	case replaceIdx >= 0:
		entry.Version = c.versions[replaceIdx].Version
	case c.storedLive[id] != 0:
		entry.Version = c.storedLive[id]
	default:
		entry.Version = c.nextVersion()
	}

	// Write-through before committing in-memory state, so a store
	// failure leaves the registry unchanged.
	xml, err := entry.DescriptionXML()
	if err != nil {
		return nil, err
	}
	if err := r.store.Put(Record{
		Key:      Key{Kind: KindDescription, Ref: d.Name, Version: entry.Version},
		Identity: id,
		Data:     xml,
	}); err != nil {
		return nil, err
	}

	if err := r.repo.Add(d); err != nil {
		return nil, err
	}
	r.byID[d.Identity] = entry
	if replaceIdx >= 0 {
		c.versions[replaceIdx] = entry
	} else {
		c.versions = append(c.versions, entry)
		sort.Slice(c.versions, func(i, j int) bool {
			return c.versions[i].Version < c.versions[j].Version
		})
	}
	// Name resolution always points at the latest live version, even
	// when the registration just reclaimed an older slot.
	if ll := c.latestLive(); ll != nil {
		r.byName[d.Name] = ll
		if ll != entry {
			_ = r.repo.Add(ll.Description)
		}
	}

	// Auto-describe reachable named types so nested conformance
	// resolves (Section 5.2's "subtype description might already be
	// available at the receiver side").
	r.describeReachable(t)
	c.stamp.Add(1)
	r.gen.Add(1)
	return entry, nil
}

// chainLocked returns (creating on first touch) the version chain for
// name, seeding its numbering from the backing store so a warm
// restart continues where the previous incarnation stopped.
func (r *Registry) chainLocked(name string) *chain {
	if c := r.chains[name]; c != nil {
		return c
	}
	c := &chain{name: name, storedLive: make(map[string]uint64)}
	if recs, err := r.store.List(KindDescription); err == nil {
		for _, rec := range recs {
			if rec.Key.Ref != name {
				continue
			}
			if rec.Key.Version > c.storedBase {
				c.storedBase = rec.Key.Version
			}
			if !rec.Tombstone && rec.Identity != "" {
				c.storedLive[rec.Identity] = rec.Key.Version
			}
		}
	}
	r.chains[name] = c
	return c
}

// describeReachable walks field/elem types, adding descriptions (not
// full entries) for named structs and interfaces. A type walked
// before, by this registration or an earlier one, is skipped whole
// (see Registry.described); marking it on entry also stops recursion
// through cyclic types.
func (r *Registry) describeReachable(t reflect.Type) {
	if t == nil {
		return
	}
	if _, done := r.described[t]; done {
		return
	}
	if r.described == nil {
		r.described = make(map[reflect.Type]struct{})
	}
	r.described[t] = struct{}{}
	switch t.Kind() {
	case reflect.Ptr, reflect.Slice, reflect.Array:
		r.addDescription(t)
		r.describeReachable(t.Elem())
	case reflect.Map:
		r.addDescription(t)
		r.describeReachable(t.Key())
		r.describeReachable(t.Elem())
	case reflect.Struct:
		r.addDescription(t)
		r.addDescription(reflect.PtrTo(t))
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() && !f.Anonymous {
				continue
			}
			r.describeReachable(f.Type)
		}
	case reflect.Interface:
		r.addDescription(t)
	}
}

func (r *Registry) addDescription(t reflect.Type) {
	if t.Kind() == reflect.Struct || t.Kind() == reflect.Interface {
		if t.Name() == "" {
			return
		}
	}
	d, err := typedesc.Describe(t, typedesc.WithInterfaces(r.ifaces...))
	if err != nil {
		return
	}
	if r.repo.Contains(d.Ref()) {
		return
	}
	_ = r.repo.Add(d)
}

// Unregister tombstones a type's version: by identity it targets that
// exact version, by name the latest live one. The tombstoned version
// drops out of every lookup — name resolution falls back to the
// previous live version, so unregistering v2 of a chain resurfaces v1
// — while the version number stays burned (never reused) and the
// change feed emits the removal. Descriptions stay in the repository;
// other descriptions may reference them.
func (r *Registry) Unregister(ref typedesc.TypeRef) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	var entry *Entry
	if !ref.Identity.IsNil() {
		entry = r.byID[ref.Identity]
	}
	if entry == nil && ref.Name != "" {
		entry = r.byName[ref.Name]
	}
	if entry == nil || entry.tombstone {
		return false
	}
	name := entry.Description.Name
	entry.tombstone = true
	delete(r.byID, entry.Description.Identity)
	c := r.chains[name]
	if c != nil {
		if prev := c.latestLive(); prev != nil {
			r.byName[name] = prev
			_ = r.repo.Add(prev.Description)
		} else {
			delete(r.byName, name)
		}
		c.stamp.Add(1)
	} else {
		delete(r.byName, name)
	}
	r.gen.Add(1)
	// The tombstone record replaces the live record at this version
	// and rides the change feed. Best-effort: the in-memory removal
	// is already committed and the bool contract predates the store.
	_ = r.store.Put(Record{
		Key:       Key{Kind: KindDescription, Ref: name, Version: entry.Version},
		Identity:  entry.Description.Identity.String(),
		Tombstone: true,
	})
	return true
}

// Lookup finds the live entry for a type reference: identity first
// (an exact version), then name (the latest live version of that
// chain). Tombstoned versions never resolve.
func (r *Registry) Lookup(ref typedesc.TypeRef) (*Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.lookupLocked(ref)
}

func (r *Registry) lookupLocked(ref typedesc.TypeRef) (*Entry, bool) {
	if !ref.Identity.IsNil() {
		if e, ok := r.byID[ref.Identity]; ok {
			return e, true
		}
	}
	if ref.Name != "" {
		if e, ok := r.byName[ref.Name]; ok {
			return e, true
		}
	}
	return nil, false
}

// LookupVersion pins one version of a chain: version 0 means latest
// (identical to Lookup), any other version resolves iff that exact
// version is live. The chain is found by name, falling back to the
// identity's chain.
func (r *Registry) LookupVersion(ref typedesc.TypeRef, version uint64) (*Entry, bool) {
	if version == 0 {
		return r.Lookup(ref)
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	c := r.chainForRefLocked(ref)
	if c == nil {
		return nil, false
	}
	for _, e := range c.versions {
		if e.Version == version {
			if e.tombstone {
				return nil, false
			}
			return e, true
		}
	}
	return nil, false
}

// Versions returns the live version numbers of a type's chain in
// ascending order (tombstoned versions are omitted).
func (r *Registry) Versions(ref typedesc.TypeRef) []uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c := r.chainForRefLocked(ref)
	if c == nil {
		return nil
	}
	out := make([]uint64, 0, len(c.versions))
	for _, e := range c.versions {
		if !e.tombstone {
			out = append(out, e.Version)
		}
	}
	return out
}

func (r *Registry) chainForRefLocked(ref typedesc.TypeRef) *chain {
	if ref.Name != "" {
		if c := r.chains[ref.Name]; c != nil {
			return c
		}
	}
	if !ref.Identity.IsNil() {
		if e := r.byID[ref.Identity]; e != nil {
			return r.chains[e.Description.Name]
		}
	}
	return nil
}

// LookupGo finds the entry registered for a Go type. Results are
// memoized per type: hits stay valid until their own version chain
// mutates (keyed by the chain's stamp, not the registry-wide
// generation — registering type A no longer evicts type B's memo);
// misses stay valid until any registry mutation.
func (r *Registry) LookupGo(t reflect.Type) (*Entry, bool) {
	for t.Kind() == reflect.Ptr {
		t = t.Elem()
	}
	gen := r.gen.Load()
	if v, ok := r.goMemo.Load(t); ok {
		if m := v.(goMemoEntry); m.valid(gen) {
			return m.entry, m.entry != nil
		}
	}
	r.mu.RLock()
	e, ok := r.lookupLocked(typedesc.RefOf(t))
	m := goMemoEntry{stamp: gen}
	if ok {
		m.entry = e
		if c := r.chains[e.Description.Name]; c != nil {
			m.chain = c
			m.stamp = c.stamp.Load()
		}
	}
	r.mu.RUnlock()
	r.goMemo.Store(t, m)
	return e, ok
}

// Entries returns a snapshot of all registered entries.
func (r *Registry) Entries() []*Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Entry, 0, len(r.byID))
	for _, e := range r.byID {
		out = append(out, e)
	}
	return out
}

// Descriptions exposes the registry's description repository; it
// implements typedesc.Resolver and is shared with conformance
// checkers and the transport layer.
func (r *Registry) Descriptions() *typedesc.Repository { return r.repo }

// Resolve implements typedesc.Resolver directly on the registry.
func (r *Registry) Resolve(ref typedesc.TypeRef) (*typedesc.TypeDescription, error) {
	return r.repo.Resolve(ref)
}

var _ typedesc.Resolver = (*Registry)(nil)
