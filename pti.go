// Package pti is a Go implementation of Pragmatic Type
// Interoperability (Baehni, Eugster, Guerraoui, Altherr — ICDCS
// 2003): it lets types that were written by different programmers —
// with different member names, field orders, even argument orders —
// be used interchangeably as long as they represent the same software
// module, for both pass-by-value and pass-by-reference semantics in a
// distributed setting.
//
// The Runtime facade ties together the building blocks:
//
//   - implicit structural conformance rules (Section 4 of the paper),
//   - XML type descriptions built by introspection (Section 5),
//   - hybrid XML + SOAP/binary object serialization (Section 6),
//   - the optimistic transport protocol of Figure 1,
//   - dynamic proxies interposing the conformance mapping.
//
// Quick start:
//
//	rt := pti.New()
//	_ = rt.Register(PersonA{})
//	res, _ := rt.ConformsTo(PersonB{}, PersonA{})
//	if res.Conformant {
//	    inv, _ := rt.NewInvoker(&PersonB{...}, PersonA{})
//	    name, _ := inv.Call("GetName") // runs PersonB.GetPersonName
//	}
//
// # Compiled invocation plans and the sharded conformance cache
//
// The hot path of the optimistic protocol — receiving another object
// of an already-checked type — is engineered to be near-free:
//
//   - Conformance results are memoized in a sharded cache (64 lock
//     stripes, RLock-only reads, atomic hit/miss counters) keyed by
//     (candidate identity, expected identity, policy fingerprint), so
//     concurrent receivers never serialize on a cache lookup.
//   - Every conformant mapping is compiled once into an index-based
//     invocation Plan (method indices, argument permutations, field
//     index paths — no string lookups) memoized alongside the cached
//     result and on registry entries. Invoker.Call dispatches through
//     the plan; the uncompiled reference path survives as
//     Invoker.CallReflective and property tests assert the two are
//     semantically identical.
//
// Benchmark the difference with
//
//	go test -run '^$' -bench 'InvokerCall|CheckCached' -benchmem .
//
// or `make bench`; `make check` (go vet + go test -race ./...) is the
// CI gate.
//
// # Compiled wire codecs
//
// Serialization gets the same compile-once treatment (see
// docs/wire.md): every registered type carries a wire.Program —
// memoized on its registry entry next to the invocation plan — that
// encodes straight from the Go value to bytes with no intermediate
// generic tree, and decodes streams of known types through
// precompiled materializer tables. The envelope's static parts (type
// reference, assembly list, payload delimiters) are precompiled into
// an xmlenc.EnvelopeTemplate per entry, so the steady-state
// SendObject/Marshal path allocates nothing beyond the outgoing
// bytes. Shapes the compiled path cannot reproduce byte-for-byte
// (pointer graphs, interfaces) fall back transparently to the
// reflective codec, which remains authoritative and benchmarked side
// by side (`make bench-wire`).
//
// # Configuration
//
// Every knob of the facade is a functional option, collected in
// options.go under five documented groups: runtime options (policy,
// codec, cache bound — see Option), registration options
// (constructors, download paths, logical type names — see
// RegisterOption), peer reliability options (the reliable delivery
// layer — see PeerOption and ReliableOption), peer lifecycle options
// (failure detection, redial, quarantine), and fabric options
// (simulation — see FabricOption). Each group has a runnable example
// in example_options_test.go.
//
// # Durable registry
//
// The registry behind a Runtime persists through a pluggable Store
// (store.go): NewWithStore opens a Runtime over a durable store,
// WithStoreDir gives a transport peer a crash-safe file store so a
// warm restart re-serves every description it already learned with
// zero wire fetches, and WithTypeName places evolved Go types in one
// logical version chain. See docs/registry.md.
package pti

import (
	"errors"
	"fmt"
	"reflect"

	"pti/internal/borrowlend"
	"pti/internal/bufpool"
	"pti/internal/conform"
	"pti/internal/lingua"
	"pti/internal/proxy"
	"pti/internal/registry"
	"pti/internal/tps"
	"pti/internal/transport"
	"pti/internal/typedesc"
	"pti/internal/wire"
	"pti/internal/xmlenc"
)

// Re-exported building-block types. Aliases keep the internal
// packages as the single source of truth while giving users one
// import.
type (
	// Policy tunes the name-conformance rules (Section 4.2).
	Policy = conform.Policy
	// Result is the outcome of a conformance check.
	Result = conform.Result
	// Mapping realizes a conformance: member renames and argument
	// permutations.
	Mapping = conform.Mapping
	// Plan is a Mapping compiled against a concrete Go type: indexed
	// dispatch with no per-call name resolution.
	Plan = conform.Plan
	// Program is a per-type compiled wire codec program: direct
	// value-to-bytes encode and bytes-to-value decode with no
	// intermediate generic tree, falling back transparently to the
	// reflective codec for shapes outside the direct subset.
	Program = wire.Program
	// Override pins an ambiguous member correspondence.
	Override = conform.Override
	// TypeDescription is the flat structural description of a type
	// (Section 5).
	TypeDescription = typedesc.TypeDescription
	// TypeRef references a type by name and 128-bit identity.
	TypeRef = typedesc.TypeRef
	// Invoker is a dynamic proxy over a concrete value (Section 6).
	Invoker = proxy.Invoker
	// View is a mapped read-only view over a generic received
	// object.
	View = proxy.View
	// Peer is a transport participant running the optimistic
	// protocol of Figure 1.
	Peer = transport.Peer
	// Conn is one link between two peers.
	Conn = transport.Conn
	// Link is the frame-path abstraction both real connections and
	// simulated fabric links satisfy.
	Link = transport.Link
	// Fabric is the deterministic multi-peer simulation network with
	// fault injection (latency, loss, duplication, reordering,
	// partitions, crash/restart), seeded for replay.
	Fabric = transport.Fabric
	// FabricNode is one simulated peer of a Fabric.
	FabricNode = transport.Node
	// FaultProfile describes one fabric link direction's behaviour.
	FaultProfile = transport.FaultProfile
	// Delivery is a received object.
	Delivery = transport.Delivery
	// ManagedRemote is a lifecycle-managed outbound link: the peer
	// heartbeats it, redials it on failure and resumes its reliable
	// session across the outage (see docs/health.md).
	ManagedRemote = transport.Remote
	// HealthState is a managed remote's failure-detector state.
	HealthState = transport.HealthState
	// DialFunc (re)establishes the raw byte stream behind a managed
	// remote.
	DialFunc = transport.DialFunc
	// RemoteRef is a pass-by-reference proxy to a remote object.
	RemoteRef = transport.RemoteRef
	// Broker is a type-based publish/subscribe broker (Section 8).
	Broker = tps.Broker
	// BrokerEvent is a delivered publish/subscribe notification.
	BrokerEvent = tps.Event
	// Market is a borrow/lend market (Section 8).
	Market = borrowlend.Market
	// Loan is a borrowed resource.
	Loan = borrowlend.Loan
)

// Connect wires two peers through an in-memory pipe (tests, demos).
func Connect(a, b *Peer) (*Conn, *Conn) { return transport.Connect(a, b) }

// ParseIDL parses lingua-franca IDL source (the explicit
// type-definition route of the paper's Section 2.6 comparison) into
// type descriptions that participate in conformance checks exactly
// like reflection-derived ones.
func ParseIDL(src string) ([]*TypeDescription, error) { return lingua.Parse(src) }

// FormatIDL renders a description as lingua-franca IDL text.
func FormatIDL(d *TypeDescription) string { return lingua.Format(d) }

// StrictPolicy returns the paper's Figure 2 rule exactly as written
// (case-insensitive name equality).
func StrictPolicy() Policy { return conform.Strict() }

// RelaxedPolicy returns the pragmatic default: type names within
// Levenshtein distance k, member names related by camel-case token
// subset — the configuration that unifies the paper's own
// setName/setPersonName example.
func RelaxedPolicy(k int) Policy { return conform.Relaxed(k) }

// ErrNotConformant is returned when a mapped operation is requested
// for a non-conformant pair.
var ErrNotConformant = errors.New("pti: types do not conform")

// Runtime is the top-level entry point: a registry of local types
// plus a conformance checker and serialization machinery.
type Runtime struct {
	reg      *registry.Registry
	cache    *conform.Cache
	checker  *conform.Checker
	binder   *proxy.Binder
	codec    wire.Codec
	policy   Policy
	cacheCap int

	// envReader recognizes repeated envelope shapes so steady-state
	// Unmarshal skips encoding/xml.
	envReader xmlenc.EnvelopeReader
}

// New builds a Runtime over an in-memory registry. Use NewWithStore
// to back the registry with a durable Store instead.
func New(opts ...Option) *Runtime {
	return buildRuntime(registry.New(), opts...)
}

func buildRuntime(reg *registry.Registry, opts ...Option) *Runtime {
	r := &Runtime{
		reg:    reg,
		codec:  wire.Binary{},
		policy: RelaxedPolicy(1),
	}
	for _, opt := range opts {
		opt(r)
	}
	r.cache = conform.NewCacheWithCapacity(r.cacheCap)
	cat := registry.NewCatalog(r.reg, nil, nil)
	r.checker = conform.New(cat, conform.WithPolicy(r.policy), conform.WithCache(r.cache))
	r.binder = proxy.NewBinder(cat, r.checker)
	return r
}

// Register adds a local type (an instance or reflect.Type) to the
// runtime.
func (r *Runtime) Register(v interface{}, opts ...RegisterOption) error {
	_, err := r.reg.Register(v, opts...)
	return err
}

// DeclareInterface registers an interface type (pass a pointer to it,
// e.g. (*Person)(nil)) so implementations advertise it.
func (r *Runtime) DeclareInterface(iface interface{}) error {
	return r.reg.DeclareInterface(iface)
}

// Describe builds (or retrieves) the TypeDescription of v's type.
func (r *Runtime) Describe(v interface{}) (*TypeDescription, error) {
	d, _, err := r.describeEntry(v)
	return d, err
}

// describeEntry is Describe plus the registry entry when v's type is
// registered — the receive path needs both and must not pay a second
// lookup for the entry.
func (r *Runtime) describeEntry(v interface{}) (*TypeDescription, *registry.Entry, error) {
	t, ok := v.(reflect.Type)
	if !ok {
		t = reflect.TypeOf(v)
	}
	if t == nil {
		return nil, nil, fmt.Errorf("pti: Describe(nil)")
	}
	if t.Kind() == reflect.Ptr && t.Elem().Kind() == reflect.Interface {
		t = t.Elem()
	}
	for t.Kind() == reflect.Ptr {
		t = t.Elem()
	}
	if e, found := r.reg.LookupGo(t); found {
		return e.Description, e, nil
	}
	d, err := typedesc.Describe(t)
	return d, nil, err
}

// DescribeXML renders the XML type description of v's type — the
// wire form of Section 5.2.
func (r *Runtime) DescribeXML(v interface{}) ([]byte, error) {
	d, err := r.Describe(v)
	if err != nil {
		return nil, err
	}
	return xmlenc.MarshalDescription(d)
}

// ConformsTo checks whether the type of candidate implicitly
// structurally conforms to the type of expected (rule (vi)).
func (r *Runtime) ConformsTo(candidate, expected interface{}) (*Result, error) {
	cd, err := r.Describe(candidate)
	if err != nil {
		return nil, err
	}
	ed, err := r.Describe(expected)
	if err != nil {
		return nil, err
	}
	return r.checker.Check(cd, ed)
}

// Report is a full conformance diagnostic (every violated aspect).
type Report = conform.Report

// Explain runs the full rule set without early exit, reporting every
// violated aspect — the diagnostic companion to ConformsTo.
func (r *Runtime) Explain(candidate, expected interface{}) (*Report, error) {
	cd, err := r.Describe(candidate)
	if err != nil {
		return nil, err
	}
	ed, err := r.Describe(expected)
	if err != nil {
		return nil, err
	}
	return r.checker.Explain(cd, ed)
}

// Diff lists the structural differences between the descriptions of
// two types, one human-readable line per divergence.
func (r *Runtime) Diff(a, b interface{}) ([]string, error) {
	da, err := r.Describe(a)
	if err != nil {
		return nil, err
	}
	db, err := r.Describe(b)
	if err != nil {
		return nil, err
	}
	return typedesc.Diff(da, db), nil
}

// NewInvoker wraps target in a dynamic proxy presenting the expected
// type's vocabulary. It fails with ErrNotConformant when the types do
// not conform. The invoker dispatches through the invocation plan
// compiled and cached alongside the conformance result, so repeated
// NewInvoker calls for the same type pair share one compiled plan.
func (r *Runtime) NewInvoker(target, expected interface{}) (*Invoker, error) {
	res, err := r.ConformsTo(target, expected)
	if err != nil {
		return nil, err
	}
	if !res.Conformant {
		return nil, fmt.Errorf("%w: %s", ErrNotConformant, res.Reason)
	}
	plan, err := r.checker.PlanFor(res, conform.PlanTargetOf(target))
	if err != nil {
		return nil, err
	}
	return proxy.NewInvokerWithPlan(target, res.Mapping, plan)
}

// PlanFor exposes the compiled invocation plan for a conformance
// result against the Go type of target (useful for inspecting what a
// proxy will do, and for the benchmark harness).
func (r *Runtime) PlanFor(res *Result, target interface{}) (*Plan, error) {
	tt := conform.PlanTargetOf(target)
	if tt == nil {
		return nil, fmt.Errorf("pti: PlanFor(nil target)")
	}
	p, err := r.checker.PlanFor(res, tt)
	if errors.Is(err, conform.ErrNotConformant) {
		// Translate the internal sentinel so API users can match it.
		return nil, fmt.Errorf("%w: no plan for a failed conformance result", ErrNotConformant)
	}
	return p, err
}

// Marshal serializes v into the hybrid envelope of Figure 3: an XML
// message with type information and download paths embedding the
// codec payload. The type of v must be registered. It writes through
// the registry entry's one object writer, so its result is exactly
// the envelope a transport SendObject puts on the wire: the payload
// goes through the entry's compiled codec program, whose root carries
// the registered name on the compiled and reflective paths alike, and
// the envelope's static parts come from the entry's precompiled
// template. For a type the compiled encoder covers, the result is the
// call's one allocation.
func (r *Runtime) Marshal(v interface{}) ([]byte, error) {
	t := reflect.TypeOf(v)
	entry, ok := r.reg.LookupGo(t)
	if !ok {
		return nil, fmt.Errorf("pti: %s is not registered", t)
	}
	return entry.AppendObject(nil, r.codec, v, r.reg)
}

// ProgramFor exposes the compiled wire codec program memoized on the
// registry entry for v's (registered) type — the serialization
// counterpart of PlanFor, useful for inspection and benchmarks.
func (r *Runtime) ProgramFor(v interface{}) (*Program, error) {
	t := reflect.TypeOf(v)
	entry, ok := r.reg.LookupGo(t)
	if !ok {
		return nil, fmt.Errorf("pti: %s is not registered", t)
	}
	return entry.Program()
}

// Unmarshal parses an envelope and materializes the object as the
// expected type, which the object's type — the exact version the
// envelope names — must conform to. It returns the bound value and
// the mapping used.
//
// Like Marshal, the steady state runs compiled end to end: the
// envelope reader recognizes the document's shape from earlier calls
// and skips encoding/xml, and the binder decodes the payload through
// the expected type's compiled wire program straight into a fresh
// instance — the same bind a transport delivery runs. Anything off
// that path falls back transparently to the reflective pipeline,
// which stays the authority for values, errors and conformance.
func (r *Runtime) Unmarshal(data []byte, expected interface{}) (interface{}, *Mapping, error) {
	// The payload decodes into a pooled scratch: every decoder
	// downstream copies what it keeps, so it is dead on return.
	sc := bufpool.Get()
	defer bufpool.Put(sc)
	env, scratch, err := r.envReader.Unmarshal(data, sc.B)
	sc.B = scratch
	if err != nil {
		return nil, nil, err
	}
	codec, err := wire.ByName(string(env.Encoding))
	if err != nil {
		return nil, nil, err
	}
	ed, entry, err := r.describeEntry(expected)
	if err != nil {
		return nil, nil, err
	}
	if entry == nil {
		var ok bool
		if entry, ok = r.reg.Lookup(ed.Ref()); !ok {
			return nil, nil, fmt.Errorf("%w: no local implementation registered for %s", proxy.ErrNotBindable, ed.Ref())
		}
	}
	out, m, _, err := r.binder.Deserialize(codec, entry, env.Payload, env.Type)
	return out, m, err
}

// PendingCall is one in-flight pipelined invocation started by
// RemoteRef.CallAsync; Wait collects its out-of-order reply.
type PendingCall = transport.PendingCall

// RemoteError is a failure reported by the remote peer, rehydrated
// with its error identity intact: it matches ErrRemoteFailure and,
// when the wire carried a known code, the original sentinel
// (ErrNoSuchExport, ErrInvokeQueueFull, ...) under errors.Is.
type RemoteError = transport.RemoteError

// Remoting error sentinels, matchable with errors.Is on the caller
// side even when the failure happened on the server (see
// docs/remote.md).
var (
	// ErrRemoteFailure marks any failure reported by the remote side.
	ErrRemoteFailure = transport.ErrRemote
	// ErrNoSuchExport reports an unknown exported object name.
	ErrNoSuchExport = transport.ErrNoSuchExport
	// ErrInvokeQueueFull is the invoke path's load-shed hint: the
	// server's worker+queue budget, or the local pacing window in
	// fail-fast mode, was exhausted. Back off and retry.
	ErrInvokeQueueFull = transport.ErrInvokeQueueFull
	// ErrArityMismatch reports an argument-count mismatch against the
	// conformance mapping or the target method.
	ErrArityMismatch = transport.ErrArityMismatch
	// ErrRemotePanic reports that the exported method panicked; the
	// serving peer recovered and keeps serving.
	ErrRemotePanic = transport.ErrRemotePanic
)

// NewPeer builds a transport peer sharing this runtime's registry and
// policy.
func (r *Runtime) NewPeer(name string, opts ...PeerOption) *Peer {
	return transport.NewPeer(r.reg, append(r.basePeerOptions(transport.WithName(name)), opts...)...)
}

func (r *Runtime) basePeerOptions(extra ...PeerOption) []transport.PeerOption {
	base := append(extra,
		transport.WithPolicy(r.policy),
		transport.WithCodec(r.codec),
	)
	if r.cacheCap > 0 {
		base = append(base, transport.WithCacheCapacity(r.cacheCap))
	}
	return base
}

// NewFabric builds a deterministic multi-peer simulation fabric whose
// peers default to this runtime's registry, policy, codec and cache
// bound. Every random choice on the fabric derives from seed, so a
// failing scenario replays from its printed seed:
//
//	f := rt.NewFabric(42, pti.WithVirtualClock())
//	a, _ := f.AddPeer("a", pti.WithReliableLinks())
//	b, _ := f.AddPeer("b", pti.Eager())
//	f.Connect("a", "b", pti.FaultProfile{Latency: 2 * time.Millisecond, DropRate: 0.1})
func (r *Runtime) NewFabric(seed int64, opts ...FabricOption) *Fabric {
	all := append([]transport.FabricOption{
		transport.WithFabricRegistry(r.reg),
		transport.WithFabricPeerOptions(r.basePeerOptions()...),
	}, opts...)
	return transport.NewFabric(seed, all...)
}

// NewBroker builds a type-based publish/subscribe broker over this
// runtime's registry and policy.
func (r *Runtime) NewBroker() *Broker {
	return tps.NewBroker(r.reg, tps.WithPolicy(r.policy))
}

// NewMarket builds a borrow/lend market over this runtime's registry
// and policy.
func (r *Runtime) NewMarket() *Market {
	return borrowlend.NewMarket(r.reg, borrowlend.WithPolicy(r.policy))
}
