package transport

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pti/internal/conform"
	"pti/internal/proxy"
	"pti/internal/registry"
	"pti/internal/typedesc"
	"pti/internal/wire"
	"pti/internal/xmlenc"
)

// Peer errors.
var (
	ErrNotRegistered = errors.New("transport: type not registered")
	ErrNoConformance = errors.New("transport: no conformant type of interest")
	// ErrPeerClosed fails in-flight request/reply exchanges the moment
	// the owning peer shuts down, instead of letting them run out the
	// request timeout.
	ErrPeerClosed = errors.New("transport: peer closed")
)

// Delivery is a received object handed to an interest handler. When
// the peer has a local implementation for the type of interest, Bound
// carries a materialized instance and Invoker a dynamic proxy over
// it; otherwise View gives mapped read access to the generic object.
type Delivery struct {
	From     *Conn
	TypeName string
	Expected typedesc.TypeRef
	Mapping  *conform.Mapping
	Bound    interface{}
	Invoker  *proxy.Invoker
	View     *proxy.View
}

type interest struct {
	desc    *typedesc.TypeDescription
	handler func(Delivery)
}

type export struct {
	invoker *proxy.Invoker
	desc    *typedesc.TypeDescription
}

// Peer is one participant of the protocol: it owns a local registry
// ("assemblies"), a repository of remotely learned descriptions, a
// conformance checker with cache, and any number of connections.
type Peer struct {
	name           string
	reg            *registry.Registry
	remote         *typedesc.Repository
	cache          *conform.Cache
	checker        *conform.Checker
	binder         *proxy.Binder
	codec          wire.Codec
	eager          bool
	requestTimeout time.Duration
	observer       Observer
	clock          Clock
	relCfg         *ReliableConfig
	invCfg         InvokeConfig
	lifeCfg        LifecycleConfig
	stats          Stats

	// store, when set (WithStore), is the peer's durable description
	// and code-seen cache: warm-loaded into the remote repository at
	// construction, consulted by ensureDescription before the wire,
	// written through on every fetch, and subscribed for change-feed
	// deltas. storeWatchCancel tears the subscription down on Close.
	store            registry.Store
	ownStore         bool
	storeWatchCancel func()

	// recvFPVersion memoizes the per-source-version materializer
	// fingerprint (recvFP + source identity) so the steady-state
	// compiled receive path doesn't re-concatenate it per delivery.
	recvFPVersion atomic.Pointer[fpMemo]

	// envReader recognizes repeated envelope shapes on the receive
	// path (the receive-side counterpart of the entry's envelope
	// template); recvFP fingerprints this peer's binder for the
	// compiled decoders' materializer-table memoization.
	envReader xmlenc.EnvelopeReader
	recvFP    string

	// activeHandlers counts running message handlers and
	// parkedHandlers the subset blocked on a clock-backed wait (a
	// request reply, a single-flight claim). Their difference is the
	// peer's contribution to the virtual clock's busy probe: time
	// must not advance while a handler is actually executing, but a
	// handler waiting on a timer-guarded exchange is the clock's to
	// resolve.
	activeHandlers atomic.Int64
	parkedHandlers atomic.Int64

	// busyRef, when set (fabric-built peers), is the fabric's shared
	// busy-probe aggregate: handler enter/park/unpark/exit mirror into
	// its handlers counter, and the peer's reliable links maintain its
	// pipelines counter, so the fabric's probe is O(1) in peers.
	busyRef *fabricBusy

	mu        sync.Mutex
	interests []*interest
	exports   map[string]*export
	conns     map[*Conn]struct{}
	remotes   map[string]*Remote
	codeSeen  map[string]bool
	codeBlobs map[string]codeBlobCache
	inflight  map[string]chan struct{}
	listener  net.Listener
	acceptWG  sync.WaitGroup
	handlerWG sync.WaitGroup
	closed    bool

	// relResume remembers, per sender epoch, the receive side's next
	// expected seq at the moment a conn died — what a redialing sender
	// is told during the resume handshake so it replays only the
	// unacked window. Epochs are globally unique (randomly seeded
	// counter, see relEpochCounter), so the epoch alone names the
	// sending link. Entries are consumed on handout — the adopting
	// conn then holds the live watermark — and bounded FIFO
	// (maxSavedRelSessions).
	relResume      map[uint64]uint64
	relResumeOrder []uint64

	// closeCh is closed when the peer shuts down; pending
	// request/reply exchanges select on it to fail fast with
	// ErrPeerClosed.
	closeCh chan struct{}
}

// PeerOption customizes a Peer.
type PeerOption func(*Peer)

// WithName labels the peer in diagnostics.
func WithName(name string) PeerOption {
	return func(p *Peer) { p.name = name }
}

// withFabricBusy shares the owning fabric's busy-probe counters with
// the peer (internal: the fabric prepends it to every peer it builds,
// and Restart re-applies it with the rest of the node's options).
func withFabricBusy(fb *fabricBusy) PeerOption {
	return func(p *Peer) { p.busyRef = fb }
}

// rebuildChecker reconstructs the checker and binder around the
// peer's current cache — the single place checker wiring lives, so
// policy and cache options compose in either order.
func (p *Peer) rebuildChecker(pol conform.Policy) {
	p.checker = conform.New(typedesc.MultiResolver{p.reg, p.remote},
		conform.WithPolicy(pol), conform.WithCache(p.cache))
	p.binder = proxy.NewBinder(p.reg, p.checker)
}

// WithPolicy sets the conformance policy (default Relaxed(1) with
// token-subset member matching — the pragmatic configuration that
// unifies the paper's Person example).
func WithPolicy(pol conform.Policy) PeerOption {
	return func(p *Peer) { p.rebuildChecker(pol) }
}

// WithCacheCapacity bounds the peer's conformance cache to roughly n
// entries with second-chance eviction (0 = unbounded, the default) —
// the long-lived-peer configuration where the type population churns
// past what should stay resident.
func WithCacheCapacity(n int) PeerOption {
	return func(p *Peer) {
		p.cache = conform.NewCacheWithCapacity(n)
		p.rebuildChecker(p.checker.Policy())
	}
}

// WithCodec selects the payload codec (default binary; the paper's
// prototype defaults to SOAP with binary as the alternative).
func WithCodec(c wire.Codec) PeerOption {
	return func(p *Peer) { p.codec = c }
}

// Eager switches the peer to the non-optimistic baseline: every
// object ships with its full type description and code blob inline.
func Eager() PeerOption {
	return func(p *Peer) { p.eager = true }
}

// WithRequestTimeout bounds each request/reply exchange.
func WithRequestTimeout(d time.Duration) PeerOption {
	return func(p *Peer) { p.requestTimeout = d }
}

// WithClock sets the clock the peer's timers run on (default: the
// wall clock). Fabrics in virtual-clock mode install their own clock
// on every peer they build, so request timeouts and retransmit timers
// compress along with link latency.
func WithClock(c Clock) PeerOption {
	return func(p *Peer) {
		if c != nil {
			p.clock = c
		}
	}
}

// WithStore attaches a registry store as the peer's durable
// description/code cache. Descriptions and code-seen markers already
// in the store are warm-loaded at construction (a restarted peer
// serves traffic with zero description fetches — see
// docs/registry.md), ensureDescription consults the store before
// asking the wire, every wire-fetched description is written through,
// and the store's change feed is applied to the remote repository so
// peers sharing a store learn each other's registrations without
// re-downloading.
func WithStore(s registry.Store) PeerOption {
	return func(p *Peer) { p.store = s }
}

// WithStoreDir is WithStore over a crash-safe file store opened (or
// created) at dir each time the option is applied. Under fabric
// Restart the rebuilt peer re-applies its options, so the directory
// is re-opened from disk — exactly a process warm restart. The peer
// owns the store and closes it with Close. A corrupt store degrades
// per record (the valid subset warms the peer); an unopenable one
// leaves the peer cold.
func WithStoreDir(dir string) PeerOption {
	return func(p *Peer) {
		s, err := registry.OpenFileStore(dir)
		if err != nil && !errors.Is(err, registry.ErrCorruptStore) {
			return
		}
		p.store = s
		p.ownStore = true
	}
}

// NewPeer builds a peer around a local registry.
func NewPeer(reg *registry.Registry, opts ...PeerOption) *Peer {
	p := &Peer{
		name:           "peer",
		reg:            reg,
		remote:         typedesc.NewRepository(),
		cache:          conform.NewCache(),
		codec:          wire.Binary{},
		requestTimeout: 5 * time.Second,
		clock:          realClock{},
		invCfg: InvokeConfig{
			Workers:     defaultInvokeWorkers,
			QueueDepth:  defaultInvokeQueueDepth,
			MaxInflight: defaultInvokeMaxInflight,
		},
		lifeCfg:   defaultLifecycleConfig(),
		exports:   make(map[string]*export),
		conns:     make(map[*Conn]struct{}),
		remotes:   make(map[string]*Remote),
		codeSeen:  make(map[string]bool),
		codeBlobs: make(map[string]codeBlobCache),
		inflight:  make(map[string]chan struct{}),
		relResume: make(map[uint64]uint64),
		closeCh:   make(chan struct{}),
	}
	p.recvFP = fmt.Sprintf("peer-binder-%d", recvFPSeq.Add(1))
	p.rebuildChecker(conform.Relaxed(1))
	for _, opt := range opts {
		opt(p)
	}
	p.initStore()
	return p
}

// initStore warm-loads the attached store and subscribes to its
// change feed. Load failures are tolerated record by record — a
// degraded store serves what it can and the rest falls back to the
// wire.
func (p *Peer) initStore() {
	if p.store == nil {
		return
	}
	if recs, err := p.store.List(registry.KindDescription); err == nil {
		for _, rec := range recs {
			if rec.Tombstone || len(rec.Data) == 0 {
				continue
			}
			d, err := xmlenc.UnmarshalDescription(rec.Data)
			if err != nil {
				continue
			}
			if p.remote.Add(d) == nil {
				p.stats.add(cDescWarmLoaded, 1)
			}
		}
	}
	p.mu.Lock()
	for _, id := range registry.CodeSeenIdentities(p.store) {
		p.codeSeen[id] = true
	}
	p.mu.Unlock()
	events, cancel := p.store.Watch()
	p.storeWatchCancel = cancel
	go p.applyStoreEvents(events)
}

// applyStoreEvents folds change-feed deltas into the remote
// repository: registrations and new versions become resolvable
// without a wire fetch. Tombstones are ignored here — identity-pinned
// resolution of already-received objects must keep working.
func (p *Peer) applyStoreEvents(events <-chan registry.StoreEvent) {
	for ev := range events {
		if ev.Record.Key.Kind != registry.KindDescription ||
			ev.Record.Tombstone || len(ev.Record.Data) == 0 {
			continue
		}
		d, err := xmlenc.UnmarshalDescription(ev.Record.Data)
		if err != nil {
			continue
		}
		if p.remote.Add(d) == nil {
			p.stats.add(cDescFeedApplied, 1)
		}
	}
}

// Stats exposes the peer's counters.
func (p *Peer) Stats() *Stats { return &p.stats }

// Registry returns the peer's local registry.
func (p *Peer) Registry() *registry.Registry { return p.reg }

// Checker returns the peer's conformance checker.
func (p *Peer) Checker() *conform.Checker { return p.checker }

// RemoteDescriptions returns the repository of descriptions learned
// from other peers.
func (p *Peer) RemoteDescriptions() *typedesc.Repository { return p.remote }

// OnReceive registers a type of interest: v is an instance of a
// registered type, a reflect.Type, or a pointer to an interface. Each
// received object is matched against interests in registration order;
// the first conformant one gets the delivery.
//
// Handlers may be invoked concurrently (each incoming message is
// processed on its own goroutine); handlers sharing state must
// synchronize.
func (p *Peer) OnReceive(v interface{}, handler func(Delivery)) error {
	t, ok := v.(reflect.Type)
	if !ok {
		t = reflect.TypeOf(v)
	}
	if t == nil {
		return fmt.Errorf("transport: OnReceive(nil)")
	}
	if t.Kind() == reflect.Ptr && t.Elem().Kind() == reflect.Interface {
		t = t.Elem()
	}
	for t.Kind() == reflect.Ptr {
		t = t.Elem()
	}
	var desc *typedesc.TypeDescription
	if e, ok := p.reg.LookupGo(t); ok {
		desc = e.Description
	} else {
		d, err := typedesc.Describe(t)
		if err != nil {
			return fmt.Errorf("transport: describe interest: %w", err)
		}
		desc = d
		// Interests must resolve for conformance checks.
		if err := p.remote.Add(d); err != nil {
			return err
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		// Registering on a dead peer would silently never fire; fail
		// so callers racing a shutdown (fabric crash schedules) know
		// to re-register on the restarted peer.
		return fmt.Errorf("transport: OnReceive: %w", ErrPeerClosed)
	}
	p.interests = append(p.interests, &interest{desc: desc, handler: handler})
	return nil
}

// OnReceiveDescription registers a type of interest given only as a
// TypeDescription — no compiled Go type required. This is the fully
// dynamic subscription route: the description may come from the
// lingua-franca IDL or from another peer. Matching objects are
// delivered as mapped generic views (there is no local implementation
// to bind to).
func (p *Peer) OnReceiveDescription(desc *typedesc.TypeDescription, handler func(Delivery)) error {
	if desc == nil {
		return fmt.Errorf("transport: OnReceiveDescription(nil)")
	}
	if err := desc.Validate(); err != nil {
		return err
	}
	if err := p.remote.Add(desc); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return fmt.Errorf("transport: OnReceiveDescription: %w", ErrPeerClosed)
	}
	p.interests = append(p.interests, &interest{desc: desc.Clone(), handler: handler})
	return nil
}

// Listen accepts connections on addr ("127.0.0.1:0" for an ephemeral
// port). The chosen address is available via Addr.
func (p *Peer) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("transport: listen: %w", err)
	}
	p.mu.Lock()
	p.listener = ln
	p.mu.Unlock()
	p.acceptWG.Add(1)
	go func() {
		defer p.acceptWG.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			newConn(p, conn)
		}
	}()
	return nil
}

// Addr returns the listening address, if any.
func (p *Peer) Addr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.listener == nil {
		return ""
	}
	return p.listener.Addr().String()
}

// Dial connects to a listening peer.
func (p *Peer) Dial(addr string) (*Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, p.requestTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return newConn(p, conn), nil
}

// Connect wires two peers through an in-memory pipe — the test and
// benchmark transport.
func Connect(a, b *Peer) (*Conn, *Conn) {
	c1, c2 := net.Pipe()
	return newConn(a, c1), newConn(b, c2)
}

// Close shuts the peer down: listener, connections, handlers.
func (p *Peer) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	close(p.closeCh)
	watchCancel := p.storeWatchCancel
	ln := p.listener
	conns := make([]*Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	remotes := make([]*Remote, 0, len(p.remotes))
	for _, rm := range p.remotes {
		remotes = append(remotes, rm)
	}
	p.mu.Unlock()

	if watchCancel != nil {
		watchCancel()
	}
	if p.ownStore && p.store != nil {
		_ = p.store.Close()
	}
	if ln != nil {
		_ = ln.Close()
	}
	// Remotes first: their shutdown stops monitor and redial loops
	// (a dial in flight finds the peer closed and discards its conn),
	// then kills the carried reliable link so nothing resumes into a
	// dead peer. Conn teardown below is idempotent with theirs.
	for _, rm := range remotes {
		rm.shutdown()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	p.acceptWG.Wait()
	p.handlerWG.Wait()
	return nil
}

// track registers a connection, refusing (false) once the peer has
// closed — a late accept or a redial racing Close must tear itself
// down instead of leaking a read loop past shutdown.
func (p *Peer) track(c *Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *Peer) untrack(c *Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.conns, c)
}

// maxSavedRelSessions bounds the saved-session map: epochs of conns
// long dead are evicted FIFO, and a resume against an evicted epoch
// simply falls back to the fresh-epoch path.
const maxSavedRelSessions = 64

// saveRelSession records a dying conn's receive-side reliable session
// so a redialing sender can resume it. Epoch 0 (no reliable traffic
// ever seen) is not worth saving.
func (p *Peer) saveRelSession(epoch, next uint64) {
	if epoch == 0 || next <= 1 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if prev, ok := p.relResume[epoch]; ok {
		if next > prev {
			p.relResume[epoch] = next
		}
		return
	}
	for len(p.relResumeOrder) >= maxSavedRelSessions {
		delete(p.relResume, p.relResumeOrder[0])
		p.relResumeOrder = p.relResumeOrder[1:]
	}
	p.relResume[epoch] = next
	p.relResumeOrder = append(p.relResumeOrder, epoch)
}

// resumeSessionFor answers a resume handshake from the saved sessions
// and the live conns (a half-open link may have died in one direction
// only), excluding the conn asking. A saved session is consumed on
// handout: a sender whose handshake timed out and redials must reach
// the current watermark through its adopter, never through this stale
// snapshot. Every live conn still holding the epoch — the
// predecessor, or an earlier adopter whose reply was lost — is sealed
// before the session is advertised, so nothing keeps delivering past
// the advertised point while the sender replays; the freshest
// watermark wins. A seal that cannot complete within its bounded wait
// fails the whole handshake (found=false): the sender falls back to a
// fresh epoch rather than resuming behind a still-delivering conn.
func (p *Peer) resumeSessionFor(epoch uint64, exclude *Conn) (next uint64, ok bool) {
	if epoch == 0 {
		return 0, false
	}
	p.mu.Lock()
	next, ok = p.relResume[epoch]
	if ok {
		delete(p.relResume, epoch)
		for i, e := range p.relResumeOrder {
			if e == epoch {
				p.relResumeOrder = append(p.relResumeOrder[:i], p.relResumeOrder[i+1:]...)
				break
			}
		}
	}
	conns := make([]*Conn, 0, len(p.conns))
	for c := range p.conns {
		if c != exclude {
			conns = append(conns, c)
		}
	}
	p.mu.Unlock()
	for _, c := range conns {
		n, held, timedOut := c.rrecv.sealIfWithin(epoch, p.clock, p.requestTimeout/2)
		if timedOut {
			return 0, false
		}
		if held && (!ok || n > next) {
			next, ok = n, true
		}
	}
	return next, ok
}

// ManagedRemote returns the named managed remote (see ManageConn),
// or nil.
func (p *Peer) ManagedRemote(name string) *Remote {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.remotes[name]
}

// registerRemote claims a name in the peer's managed-remote table.
func (p *Peer) registerRemote(rm *Remote) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPeerClosed
	}
	if _, ok := p.remotes[rm.name]; ok {
		return fmt.Errorf("transport: remote %q already managed", rm.name)
	}
	p.remotes[rm.name] = rm
	return nil
}

func (p *Peer) deregisterRemote(rm *Remote) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.remotes[rm.name] == rm {
		delete(p.remotes, rm.name)
	}
}

// handleAsync processes an incoming request off the read loop.
func (p *Peer) handleAsync(c *Conn, m *Message) {
	p.handlerEnter()
	go func() {
		defer p.handlerExit()
		p.handleRequest(c, m)
	}()
}

// goHandler runs f on a new handler goroutine.
func (p *Peer) goHandler(f func()) {
	p.handlerEnter()
	go func() {
		defer p.handlerExit()
		f()
	}()
}

// handlerEnter/handlerExit bracket a handler goroutine's lifetime:
// the wait group Close drains, the peer's own active count, and — on
// a fabric peer — the shared busy aggregate the virtual clock probes.
// handlerEnter runs before the goroutine exists, so the virtual clock
// cannot advance through the gap.
func (p *Peer) handlerEnter() {
	p.handlerWG.Add(1)
	p.activeHandlers.Add(1)
	if p.busyRef != nil {
		p.busyRef.handlers.Add(1)
	}
}

func (p *Peer) handlerExit() {
	p.activeHandlers.Add(-1)
	if p.busyRef != nil {
		p.busyRef.handlers.Add(-1)
	}
	p.handlerWG.Done()
}

// park/unpark bracket a clock-backed wait on a handler's code path
// (a description/code fetch, a single-flight claim): a parked
// handler makes no progress on its own, so it must not hold the
// virtual clock still. These are called only from handler-context
// call sites — never from Conn.request itself, which application
// goroutines also use; a parked non-handler must not cancel out a
// handler that is genuinely executing.
func (p *Peer) park() {
	p.parkedHandlers.Add(1)
	if p.busyRef != nil {
		p.busyRef.handlers.Add(-1)
	}
}

func (p *Peer) unpark() {
	p.parkedHandlers.Add(-1)
	if p.busyRef != nil {
		p.busyRef.handlers.Add(1)
	}
}

func (p *Peer) handleRequest(c *Conn, m *Message) {
	switch m.Type {
	case MsgObject:
		p.handleObject(c, m)
	case MsgTypeInfoRequest:
		p.handleTypeInfo(c, m)
	case MsgCodeRequest:
		p.handleCode(c, m)
	case MsgInvokeRequest:
		p.dispatchInvoke(c, m)
	case MsgLookupRequest:
		p.handleLookup(c, m)
	case MsgResumeRequest:
		c.handleResume(m)
	default:
		_ = c.replyError(m, fmt.Errorf("unexpected message %s", m.Type))
	}
}

// --- sender side ----------------------------------------------------

// SendObject serializes v and sends it over l following the
// optimistic protocol: only the envelope (type names, download paths,
// payload) travels; descriptions and code go on demand. The type of v
// must be registered. l is normally a *Conn — over real TCP, an
// in-memory pipe, or a simulation-fabric endpoint.
//
// The steady-state path is compiled end to end: the payload is
// encoded by the type's compiled wire.Program into a pooled scratch
// buffer, and the envelope's static parts (type reference, assembly
// list, payload delimiters) come precomputed from the registry
// entry's envelope template. The only allocation left per optimistic
// send is the outgoing message body itself.
func (p *Peer) SendObject(l Link, v interface{}) error {
	t := reflect.TypeOf(v)
	entry, ok := p.reg.LookupGo(t)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotRegistered, t)
	}
	prog, _ := entry.Program() // nil on compile error → reflective fallback

	scratch := wire.GetScratch()
	defer wire.PutScratch(scratch)
	var payload []byte
	var err error
	if wireName := entry.Description.Name; (prog == nil || !prog.Direct()) &&
		wireName != typedesc.CanonicalName(entry.Type) {
		// The compiled program stamps the registered name on the fast
		// path; the reflective fallback must rename the root the same
		// way or receivers could not resolve the payload's self-
		// description against the envelope ref.
		payload, err = p.encodeRenamed((*scratch)[:0], v, wireName)
	} else {
		payload, err = p.codec.EncodeCompiled(prog, (*scratch)[:0], v)
	}
	if cap(payload) > cap(*scratch) {
		*scratch = payload // keep the growth for the next send
	}
	if err != nil {
		return fmt.Errorf("transport: encode object: %w", err)
	}
	tpl, err := entry.EnvelopeTemplate(xmlenc.PayloadEncoding(p.codec.Name()), p.reg)
	if err != nil {
		return fmt.Errorf("transport: marshal envelope: %w", err)
	}

	var body []byte
	if p.eager {
		descXML, err := entry.DescriptionXML()
		if err != nil {
			return err
		}
		code := p.codeBlobFor(entry)
		envScratch := wire.GetScratch()
		envBytes := tpl.Append((*envScratch)[:0], payload)
		body = packEager(descXML, code, envBytes)
		if cap(envBytes) > cap(*envScratch) {
			*envScratch = envBytes
		}
		wire.PutScratch(envScratch)
	} else {
		// The message body is handed to the link (which may queue it),
		// so it is the one fresh allocation of the send.
		body = make([]byte, 0, 1+tpl.Size(len(payload)))
		body = append(body, flagOptimistic)
		body = tpl.Append(body, payload)
	}
	p.step(cObjectsSent, EventObjectSent, entry.Description.Ref())
	return l.Send(&Message{Type: MsgObject, Body: body})
}

// Broadcast sends v to every currently connected peer (the publisher
// pattern of the TPS application). It returns the number of
// connections reached and the aggregate of every per-connection
// failure (errors.Join — inspect with errors.Is/As; a reliable link
// that gave up on its peer contributes an *UnreachableError matching
// ErrPeerUnreachable). One failing connection never hides another's
// error, and on reliable links a stalled connection never delays the
// others: each send only enqueues on that link's send queue.
func (p *Peer) Broadcast(v interface{}) (int, error) {
	p.mu.Lock()
	conns := make([]*Conn, 0, len(p.conns))
	for c := range p.conns {
		if c.remote != nil {
			continue // lifecycle-managed: the Remote's send path owns it
		}
		conns = append(conns, c)
	}
	remotes := make([]*Remote, 0, len(p.remotes))
	for _, rm := range p.remotes {
		remotes = append(remotes, rm)
	}
	p.mu.Unlock()

	var errs []error
	sent := 0
	for _, c := range conns {
		if err := p.SendObject(c, v); err != nil {
			errs = append(errs, fmt.Errorf("broadcast to %s: %w", c.RemoteLabel(), err))
			continue
		}
		sent++
	}
	// Managed remotes ride their reliable link even while detached
	// (the queue buffers across an outage); a quarantined remote's
	// dead link fails fast instead of stalling the broadcast.
	for _, rm := range remotes {
		if err := rm.send(v); err != nil {
			errs = append(errs, fmt.Errorf("broadcast to %s: %w", rm.Name(), err))
			continue
		}
		sent++
	}
	return sent, errors.Join(errs...)
}

// encodeRenamed is the reflective encode path for entries registered
// under a logical name that differs from their Go type name: the
// generic value tree is built, its root object renamed, and the tree
// encoded with the peer's codec.
func (p *Peer) encodeRenamed(dst []byte, v interface{}, name string) ([]byte, error) {
	gv, err := wire.FromGo(v)
	if err != nil {
		return dst, err
	}
	if obj, ok := gv.(*wire.Object); ok {
		obj.TypeName = name
	}
	var data []byte
	switch p.codec.(type) {
	case wire.SOAP:
		data, err = wire.EncodeSOAP(gv)
	case wire.Binary:
		data, err = wire.EncodeBinary(gv)
	default:
		data, err = p.codec.Encode(v)
	}
	if err != nil {
		return dst, err
	}
	return append(dst, data...), nil
}

// ConnCount returns the number of live connections.
func (p *Peer) ConnCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.conns)
}

// Object-message body flags: the first body byte says whether the
// description and code ride inline (eager) or are fetched on demand
// (optimistic). Any other value is dropped as an unknown body flag.
const (
	flagOptimistic byte = 0
	flagEager      byte = 1
)

// codePadding is the simulated assembly size appended to code blobs,
// standing in for real CIL/bytecode.
const codePadding = 4096

func packEager(desc, code, env []byte) []byte {
	body := make([]byte, 0, 1+12+len(desc)+len(code)+len(env))
	body = append(body, flagEager)
	body = appendChunk(body, desc)
	body = appendChunk(body, code)
	body = append(body, env...)
	return body
}

func appendChunk(dst, chunk []byte) []byte {
	n := len(chunk)
	dst = append(dst, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
	return append(dst, chunk...)
}

func readChunk(src []byte) (chunk, rest []byte, err error) {
	if len(src) < 4 {
		return nil, nil, fmt.Errorf("%w: short chunk header", ErrBadFrame)
	}
	n := int(src[0])<<24 | int(src[1])<<16 | int(src[2])<<8 | int(src[3])
	if n < 0 || n > len(src)-4 {
		return nil, nil, fmt.Errorf("%w: chunk length %d", ErrBadFrame, n)
	}
	return src[4 : 4+n], src[4+n:], nil
}

// codeBlob simulates the assembly bytes for a type: its description
// XML (the part a real system would need anyway) plus padding
// standing in for executable code.
func (p *Peer) codeBlob(d *typedesc.TypeDescription) []byte {
	xmlBytes, err := xmlenc.MarshalDescription(d)
	if err != nil {
		xmlBytes = []byte(d.Name)
	}
	return append(xmlBytes, make([]byte, codePadding)...)
}

// codeBlobCache is one cached code blob together with the entry it
// was built from, so a replaced entry is noticed and its stale blob
// overwritten in place (the map stays bounded by the number of
// distinct type identities).
type codeBlobCache struct {
	entry *registry.Entry
	blob  []byte
}

// codeBlobFor returns the code blob for a registered entry, built
// once per (peer, entry): re-registration installs a fresh entry,
// which misses the entry comparison and rebuilds the blob under the
// same identity key.
func (p *Peer) codeBlobFor(entry *registry.Entry) []byte {
	key := entry.Description.Identity.String()
	p.mu.Lock()
	cached, ok := p.codeBlobs[key]
	p.mu.Unlock()
	if ok && cached.entry == entry {
		return cached.blob
	}
	xmlBytes, err := entry.DescriptionXML()
	if err != nil {
		xmlBytes = []byte(entry.Description.Name)
	}
	blob := make([]byte, 0, len(xmlBytes)+codePadding)
	blob = append(blob, xmlBytes...)
	blob = append(blob, make([]byte, codePadding)...)
	p.mu.Lock()
	p.codeBlobs[key] = codeBlobCache{entry: entry, blob: blob}
	p.mu.Unlock()
	return blob
}

// --- receiver side (Figure 1 steps 2-5) ------------------------------

// recvScratch carries the receive path's reusable payload buffer
// across the stages of one handleObject call. Handlers run
// concurrently, so the scratch is pooled per call rather than held per
// connection. The buffer is dead by the time the call returns: every
// decoder downstream (compiled and generic alike) copies what it
// keeps.
type recvScratch struct {
	payload []byte
}

var recvScratchPool = sync.Pool{
	New: func() interface{} { return new(recvScratch) },
}

// recvFPSeq hands every peer a distinct resolver fingerprint: binders
// of different peers can map the same source type differently, so
// their materializer tables must never be conflated on a shared
// compiled program.
var recvFPSeq atomic.Uint64

func (p *Peer) handleObject(c *Conn, m *Message) {
	p.stats.add(cObjectsReceived, 1)
	if len(m.Body) == 0 {
		p.drop(DropEmptyBody, typedesc.TypeRef{}, nil)
		return
	}
	flag := m.Body[0]
	if flag != flagOptimistic && flag != flagEager {
		// Outside input: a flag this peer never writes is not parsed
		// as an envelope.
		p.drop(DropUnknownFlag, typedesc.TypeRef{}, nil)
		return
	}
	sc := recvScratchPool.Get().(*recvScratch)
	defer recvScratchPool.Put(sc)
	body := m.Body[1:]
	var inlineDesc *typedesc.TypeDescription
	if flag == flagEager {
		descXML, rest, err := readChunk(body)
		if err != nil {
			p.drop(DropBadEagerChunk, typedesc.TypeRef{}, nil)
			return
		}
		if d, err := xmlenc.UnmarshalDescription(descXML); err == nil {
			inlineDesc = d
			if err := p.remote.Add(d); err != nil {
				// Not fatal — the inline copy still drives this
				// delivery — but a refused description (an identity
				// clash, typically) must not vanish silently.
				p.stats.add(cDescRejected, 1)
			}
		}
		// The inline code blob: consumed (and ignored — code is the
		// local implementation in this reproduction).
		_, rest, err = readChunk(rest)
		if err != nil {
			p.drop(DropBadEagerChunk, typedesc.TypeRef{}, nil)
			return
		}
		body = rest
	}

	env, payloadBuf, err := p.envReader.Unmarshal(body, sc.payload)
	sc.payload = payloadBuf
	if err != nil {
		p.drop(DropMalformedEnvelope, typedesc.TypeRef{}, nil)
		return
	}
	p.emit(EventObjectReceived, env.Type)

	// Step 2+3: obtain the type description (cache first —
	// optimistic fast path; then the sending peer; then the
	// envelope's download paths, Section 6.1).
	desc := inlineDesc
	if desc == nil {
		desc, err = p.ensureDescription(c, env.Type)
		if err != nil {
			desc, err = p.fetchFromDownloadPaths(env)
			if err != nil {
				p.drop(DropNoDescription, env.Type, nil)
				return
			}
		}
	}

	// Rules check against the registered types of interest.
	p.mu.Lock()
	interests := append([]*interest(nil), p.interests...)
	p.mu.Unlock()

	var (
		matched *interest
		result  *conform.Result
	)
	for _, in := range interests {
		r, err := p.checker.Check(desc, in.desc)
		if err != nil {
			continue
		}
		p.emit(EventConformanceChecked, desc.Ref(),
			"vs ", in.desc.Name, ": ", strconv.FormatBool(r.Conformant))
		if r.Conformant {
			matched, result = in, r
			break
		}
	}
	if matched == nil {
		p.drop(DropNoConformantType, desc.Ref(), nil)
		return
	}

	// Step 4+5: acquire the code. With a local conformant
	// implementation registered, the "download" is the (cached)
	// code-manifest exchange. An eager delivery carried its code
	// inline, so nothing is requested. Concurrent first receptions
	// of the same type collapse into one download.
	if flag != flagEager {
		p.downloadCodeOnce(c, env.Type, desc)
	}

	delivery, err := p.buildDelivery(c, env, desc, matched, result)
	if err != nil {
		p.drop(DropBindFailed, desc.Ref(), err)
		return
	}
	p.step(cObjectsDelivered, EventDelivered, desc.Ref(), "as ", matched.desc.Name)
	matched.handler(delivery)
}

func (p *Peer) buildDelivery(c *Conn, env *xmlenc.Envelope, desc *typedesc.TypeDescription, in *interest, r *conform.Result) (Delivery, error) {
	codec, err := wire.ByName(string(env.Encoding))
	if err != nil {
		return Delivery{}, err
	}
	d := Delivery{
		From:     c,
		TypeName: desc.Name,
		Expected: in.desc.Ref(),
		Mapping:  r.Mapping,
	}
	if e, ok := p.reg.Lookup(in.desc.Ref()); ok {
		bound, mapping, err := p.bindPayload(e, codec, env)
		if err != nil {
			return Delivery{}, err
		}
		d.Bound = bound
		d.Mapping = mapping
		// The bound value is a native instance of the interest type;
		// its invoker is identity-mapped and reuses the compiled plan
		// memoized on the registry entry, so the cached receive path
		// performs no per-delivery name resolution.
		plan, err := e.PlanFor(nil)
		if err != nil {
			return Delivery{}, err
		}
		inv, err := proxy.NewInvokerWithPlan(bound, nil, plan)
		if err != nil {
			return Delivery{}, err
		}
		d.Invoker = inv
		return d, nil
	}
	obj, err := p.decodeObject(codec, env.Payload)
	if err != nil {
		return Delivery{}, err
	}
	view, err := proxy.NewView(obj, r.Mapping)
	if err != nil {
		return Delivery{}, err
	}
	d.View = view
	return d, nil
}

// decodeObject runs the generic (reflective) payload decode — the
// authority the compiled path defers to.
func (p *Peer) decodeObject(codec wire.Codec, payload []byte) (*wire.Object, error) {
	gv, err := codec.DecodeGeneric(payload)
	if err != nil {
		return nil, fmt.Errorf("transport: decode payload: %w", err)
	}
	obj, ok := gv.(*wire.Object)
	if !ok {
		return nil, fmt.Errorf("transport: payload is %T, not an object", gv)
	}
	return obj, nil
}

// bindPayload materializes the payload as the registered Go type of
// the matched interest. The steady state runs compiled end to end:
// the entry's wire program decodes the stream straight into a fresh
// instance — the only allocation left — with field names resolved
// through the binder's conformance mapping and memoized per source
// type. Anything the compiled decoder cannot reproduce with certainty
// (including a payload whose embedded type name differs from the
// envelope's declared type) falls back to the generic decode + Bind
// pipeline, which stays the authority for values, errors and
// conformance.
func (p *Peer) bindPayload(e *registry.Entry, codec wire.Codec, env *xmlenc.Envelope) (interface{}, *conform.Mapping, error) {
	if prog, err := e.Program(); err == nil {
		// The full envelope ref (name + identity) keys both the
		// mapping and the materializer tables, so two coexisting
		// versions of one logical type name compile and cache separate
		// field translations instead of sharing the latest one.
		if m, err := p.binder.MappingRef(env.Type, e.Description); err == nil {
			out, ok := codec.DecodeObjectFast(prog, env.Payload,
				reflect.PtrTo(e.Type), p.binder.FieldResolverFor(env.Type),
				p.recvFPFor(env.Type), env.Type.Name)
			if ok {
				p.stats.add(cCompiledDeliveries, 1)
				return out, m, nil
			}
		}
	}
	obj, err := p.decodeObject(codec, env.Payload)
	if err != nil {
		return nil, nil, err
	}
	return p.binder.BindRef(obj, env.Type, e.Description.Ref())
}

// fpMemo is the memoized per-source-version materializer fingerprint.
type fpMemo struct {
	id typedesc.TypeRef
	fp string
}

// recvFPFor returns the materializer fingerprint for payloads of the
// given source ref: the peer's binder fingerprint qualified by the
// source identity, so compiled decode tables are keyed per (version,
// resolver fingerprint) rather than shared across versions of a name.
func (p *Peer) recvFPFor(src typedesc.TypeRef) string {
	if m := p.recvFPVersion.Load(); m != nil && m.id == src {
		return m.fp
	}
	fp := p.recvFP + "|" + src.Identity.String()
	p.recvFPVersion.Store(&fpMemo{id: src, fp: fp})
	return fp
}

// ensureDescription returns the description for ref, asking the
// remote peer only on a cache miss (the optimistic protocol's
// on-demand step): local registry, then remote repository, then the
// attached store, and only then the wire. Concurrent misses for the
// same type (the full ref — name and identity, so distinct versions
// never share a flight) collapse into one request (single flight), so
// a flash crowd of objects of a new type costs one round trip, not
// one per object.
func (p *Peer) ensureDescription(l Link, ref typedesc.TypeRef) (*typedesc.TypeDescription, error) {
	for attempt := 0; attempt < 3; attempt++ {
		if d, err := p.reg.Resolve(ref); err == nil {
			p.stats.add(cDescriptorHits, 1)
			return d, nil
		}
		if d, err := p.remote.Resolve(ref); err == nil {
			p.stats.add(cDescriptorHits, 1)
			return d, nil
		}
		if d := p.storeDescription(ref); d != nil {
			p.stats.add(cDescStoreHits, 1)
			return d, nil
		}
		leader, wait := p.claim("desc|" + ref.String())
		if !leader {
			wait()
			continue
		}
		d, err := p.fetchDescription(l, ref)
		p.release("desc|" + ref.String())
		return d, err
	}
	return nil, fmt.Errorf("transport: type info for %s: fetch did not converge", ref)
}

// storeDescription consults the attached store for ref, folding a hit
// into the remote repository so subsequent lookups resolve in memory.
func (p *Peer) storeDescription(ref typedesc.TypeRef) *typedesc.TypeDescription {
	if p.store == nil {
		return nil
	}
	rec, ok := registry.FindDescription(p.store, ref)
	if !ok {
		return nil
	}
	d, err := xmlenc.UnmarshalDescription(rec.Data)
	if err != nil {
		return nil
	}
	if err := p.remote.Add(d); err != nil {
		return nil
	}
	return d
}

// storeLearnedDescription writes a wire-fetched description through
// to the attached store so the next incarnation of this peer starts
// warm. Best-effort: a store failure never fails the delivery.
func (p *Peer) storeLearnedDescription(d *typedesc.TypeDescription) {
	if p.store == nil {
		return
	}
	_ = registry.StoreDescription(p.store, d)
}

func (p *Peer) fetchDescription(l Link, ref typedesc.TypeRef) (*typedesc.TypeDescription, error) {
	p.step(cTypeInfoRequests, EventTypeInfoRequested, ref)
	p.park() // handler context: the reply or its timeout resolves this
	reply, err := l.Request(MsgTypeInfoRequest, encodeRef(ref))
	p.unpark()
	if err != nil {
		return nil, fmt.Errorf("transport: type info for %s: %w", ref, err)
	}
	d, err := xmlenc.UnmarshalDescription(reply.Body)
	if err != nil {
		return nil, fmt.Errorf("transport: bad type info for %s: %w", ref, err)
	}
	if err := p.remote.Add(d); err != nil {
		return nil, err
	}
	p.storeLearnedDescription(d)
	return d, nil
}

// fetchFromDownloadPaths resolves the envelope's root type through
// the download paths it advertises (Section 6.1: objects travel with
// "a description of the download path where to get the complete type
// representation"). Used when the originating connection cannot
// supply the description.
func (p *Peer) fetchFromDownloadPaths(env *xmlenc.Envelope) (*typedesc.TypeDescription, error) {
	asm, ok := env.AssemblyFor(env.Type.Identity)
	if !ok || len(asm.DownloadPaths) == 0 {
		return nil, fmt.Errorf("transport: no download paths for %s", env.Type)
	}
	resolver := &HTTPResolver{BaseURLs: asm.DownloadPaths}
	d, err := resolver.Resolve(env.Type)
	if err != nil {
		return nil, err
	}
	p.stats.add(cTypeInfoRequests, 1)
	if err := p.remote.Add(d); err != nil {
		return nil, err
	}
	p.storeLearnedDescription(d)
	return d, nil
}

// claim starts or joins an in-flight fetch. The leader (true return)
// must call release; followers get a wait function.
func (p *Peer) claim(key string) (leader bool, wait func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ch, ok := p.inflight[key]; ok {
		return false, func() {
			p.park()
			defer p.unpark()
			<-ch
		}
	}
	ch := make(chan struct{})
	p.inflight[key] = ch
	return true, nil
}

func (p *Peer) release(key string) {
	p.mu.Lock()
	ch := p.inflight[key]
	delete(p.inflight, key)
	p.mu.Unlock()
	if ch != nil {
		close(ch)
	}
}

// downloadCodeOnce performs the Figure 1 code exchange the first time
// a type is seen. A failed download is not fatal: the object can
// still be delivered as a generic view.
func (p *Peer) downloadCodeOnce(l Link, ref typedesc.TypeRef, d *typedesc.TypeDescription) {
	for attempt := 0; attempt < 3; attempt++ {
		if p.codeSeenBefore(d) {
			return
		}
		leader, wait := p.claim("code|" + d.Identity.String())
		if !leader {
			wait()
			continue
		}
		p.step(cCodeRequests, EventCodeRequested, ref)
		p.park() // handler context, as in fetchDescription
		_, err := l.Request(MsgCodeRequest, encodeRef(ref))
		p.unpark()
		if err == nil {
			p.markCodeSeen(d)
		}
		p.release("code|" + d.Identity.String())
		return
	}
}

func (p *Peer) codeSeenBefore(d *typedesc.TypeDescription) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.codeSeen[d.Identity.String()]
}

func (p *Peer) markCodeSeen(d *typedesc.TypeDescription) {
	id := d.Identity.String()
	p.mu.Lock()
	p.codeSeen[id] = true
	p.mu.Unlock()
	// Persist the marker so a warm restart skips the code exchange
	// along with the description fetch.
	if p.store != nil {
		_ = registry.MarkCodeSeen(p.store, id)
	}
}

// --- server-side request handlers ------------------------------------

func (p *Peer) handleTypeInfo(c *Conn, m *Message) {
	ref, err := decodeRef(m.Body)
	if err != nil {
		_ = c.replyError(m, err)
		return
	}
	// Registered entries serve their cached description XML; bare
	// descriptions (auto-described nested types, remotely learned
	// ones) marshal per request.
	if entry, ok := p.reg.Lookup(ref); ok {
		xmlBytes, err := entry.DescriptionXML()
		if err != nil {
			_ = c.replyError(m, err)
			return
		}
		p.emit(EventTypeInfoServed, entry.Description.Ref())
		_ = c.reply(m, MsgTypeInfoReply, xmlBytes)
		return
	}
	d, err := p.reg.Resolve(ref)
	if err != nil {
		if d2, err2 := p.remote.Resolve(ref); err2 == nil {
			d = d2
		} else {
			_ = c.replyError(m, fmt.Errorf("unknown type %s", ref))
			return
		}
	}
	xmlBytes, err := xmlenc.MarshalDescription(d)
	if err != nil {
		_ = c.replyError(m, err)
		return
	}
	p.emit(EventTypeInfoServed, d.Ref())
	_ = c.reply(m, MsgTypeInfoReply, xmlBytes)
}

func (p *Peer) handleCode(c *Conn, m *Message) {
	ref, err := decodeRef(m.Body)
	if err != nil {
		_ = c.replyError(m, err)
		return
	}
	if entry, ok := p.reg.Lookup(ref); ok {
		p.emit(EventCodeServed, entry.Description.Ref())
		_ = c.reply(m, MsgCodeReply, p.codeBlobFor(entry))
		return
	}
	d, err := p.reg.Resolve(ref)
	if err != nil {
		_ = c.replyError(m, fmt.Errorf("no code for %s", ref))
		return
	}
	p.emit(EventCodeServed, d.Ref())
	_ = c.reply(m, MsgCodeReply, p.codeBlob(d))
}
