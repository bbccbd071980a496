package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strconv"
	"sync"
	"time"

	"pti/internal/bufpool"
	"pti/internal/conform"
	"pti/internal/guid"
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
	// methods is the target's method set, resolved at Export so an
	// invocation decodes its arguments without a reflective lookup.
	methods map[string]exportMethod
}

// exportMethod is one exported method's invocation plan: its name,
// its parameter types and one codec program per parameter.
type exportMethod struct {
	name  string
	in    []reflect.Type
	progs []*wire.Program
}

// Peer is one participant of the protocol: it owns a local registry
// ("assemblies"), a catalog of the descriptions it holds, a
// conformance checker with cache, and any number of connections.
type Peer struct {
	name           string
	reg            *registry.Registry
	cat            *registry.Catalog
	policy         conform.Policy
	cacheCap       int
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

	// store, when set (WithStore), backs the catalog: see
	// registry.Catalog. ownStore: the peer opened it and closes it.
	store    registry.Store
	ownStore bool

	// envReader recognizes repeated envelope shapes on the receive
	// path (the receive-side counterpart of the entry's envelope
	// template).
	envReader xmlenc.EnvelopeReader

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
	inflight  map[flightKey]chan struct{}
	// afterMiss, when set (tests), runs between a single flight's miss
	// and its claim.
	afterMiss func(flightKey)
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

// WithPolicy sets the conformance policy (default Relaxed(1) with
// token-subset member matching — the pragmatic configuration that
// unifies the paper's Person example).
func WithPolicy(pol conform.Policy) PeerOption {
	return func(p *Peer) { p.policy = pol }
}

// WithCacheCapacity bounds the peer's conformance cache to roughly n
// entries with second-chance eviction (0 = unbounded, the default) —
// the long-lived-peer configuration where the type population churns
// past what should stay resident.
func WithCacheCapacity(n int) PeerOption {
	return func(p *Peer) { p.cacheCap = n }
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

// WithStore attaches a registry store to the peer's catalog as its
// durable description/code cache (see registry.Catalog and
// docs/registry.md). Descriptions and code-seen markers already in the
// store are warm-loaded at construction, so a restarted peer serves
// traffic with zero description fetches; a description miss consults
// the store before the wire; every description fetched from outside is
// written through; and the store's change feed folds into the catalog,
// so peers sharing a store learn each other's registrations without
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
		policy:         conform.Relaxed(1),
		codec:          wire.Binary{},
		requestTimeout: 5 * time.Second,
		clock:          realClock{},
		invCfg:         InvokeConfig{Workers: 16, QueueDepth: 128, MaxInflight: 64},
		lifeCfg:        defaultLifecycleConfig(),
		exports:        make(map[string]*export),
		conns:          make(map[*Conn]struct{}),
		remotes:        make(map[string]*Remote),
		inflight:       make(map[flightKey]chan struct{}),
		relResume:      make(map[uint64]uint64),
		closeCh:        make(chan struct{}),
	}
	for _, opt := range opts {
		opt(p)
	}
	p.cat = registry.NewCatalog(reg, p.store, func(fromFeed bool) {
		if fromFeed {
			p.stats.add(cDescFeedApplied, 1)
		} else {
			p.stats.add(cDescWarmLoaded, 1)
		}
	})
	p.cache = conform.NewCacheWithCapacity(p.cacheCap)
	p.checker = conform.New(p.cat, conform.WithPolicy(p.policy), conform.WithCache(p.cache))
	p.binder = proxy.NewBinder(p.cat, p.checker)
	return p
}

// Stats exposes the peer's counters.
func (p *Peer) Stats() *Stats { return &p.stats }

// Registry returns the peer's local registry.
func (p *Peer) Registry() *registry.Registry { return p.reg }

// Checker returns the peer's conformance checker.
func (p *Peer) Checker() *conform.Checker { return p.checker }

// Catalog returns the peer's description catalog: its registry's
// descriptions, the ones it learned, and its store.
func (p *Peer) Catalog() *registry.Catalog { return p.cat }

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
		if err := p.cat.Learn(d); err != nil {
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
	if err := p.cat.Learn(desc); err != nil {
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

	p.cat.Close()
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
		n, held, timedOut := c.rrecv.seal(epoch, p.clock, p.requestTimeout/2)
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

// goHandler runs h(p, c, m) on a new handler goroutine. It is the one
// place an inbound handler starts: requests off the read loop, admitted
// invokes, reliable drains, and the frames the read loop must not write
// itself (pongs, receipt acks, shed replies). h is normally a method
// expression or a plain function, so the launch allocates only the
// goroutine's closure.
func (p *Peer) goHandler(h handler, c *Conn, m *Message) {
	p.handlerEnter()
	go func() {
		defer p.handlerExit()
		h(p, c, m)
	}()
}

// handlerEnter/handlerExit bracket a handler goroutine's lifetime:
// the wait group Close drains and — on a fabric peer — the shared
// busy count the virtual clock probes. handlerEnter runs before the
// goroutine exists, so the virtual clock cannot advance through the
// gap.
func (p *Peer) handlerEnter() {
	p.handlerWG.Add(1)
	p.busy(1)
}

func (p *Peer) handlerExit() {
	p.busy(-1)
	p.handlerWG.Done()
}

// busy adds n to the fabric's busy-handler count (a no-op off a
// fabric): time must not advance while a handler is executing.
func (p *Peer) busy(n int64) {
	if p.busyRef != nil {
		p.busyRef.handlers.Add(n)
	}
}

// park/unpark bracket a clock-backed wait on a handler's code path
// (a description/code fetch, a single-flight claim): a parked
// handler makes no progress on its own, so it must not hold the
// virtual clock still. They run only inside work counted as busy — a
// handler, or Remote's description fetch — never from Conn.request
// itself, which application goroutines also use: a parked non-handler
// would cancel out a handler that is genuinely executing.
func (p *Peer) park()   { p.busy(-1) }
func (p *Peer) unpark() { p.busy(1) }

// handleRequest runs m's request handler (msgClass.serve) and answers
// a type without one as unexpected. The reliable drain calls it in
// sequence order; the read loop starts it through goHandler.
func (p *Peer) handleRequest(c *Conn, m *Message) {
	if serve := m.Type.class().serve; serve != nil {
		serve(p, c, m)
		return
	}
	_ = c.replyError(m, fmt.Errorf("unexpected message %s", m.Type))
}

// --- sender side ----------------------------------------------------

// SendObject serializes v and sends it over l following the
// optimistic protocol: only the envelope (type names, download paths,
// payload) travels; descriptions and code go on demand. The type of v
// must be registered. l is normally a *Conn — over real TCP, an
// in-memory pipe, or a simulation-fabric endpoint.
//
// The envelope comes from the registry entry's one object writer
// (registry.Entry.AppendObject), the same bytes Runtime.Marshal
// returns. The only allocation left per optimistic send is the
// outgoing message body itself.
func (p *Peer) SendObject(l Link, v interface{}) error {
	t := reflect.TypeOf(v)
	entry, ok := p.reg.LookupGo(t)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotRegistered, t)
	}
	// The message body is handed to the link (which may queue it), so
	// it is fresh: the writer copies the head into it, growing once to
	// the exact size.
	head := optimisticHead
	if p.eager {
		descXML, err := entry.DescriptionXML()
		if err != nil {
			return err
		}
		code, err := entry.CodeBlob()
		if err != nil {
			return err
		}
		head = make([]byte, 0, 1+8+len(descXML)+len(code))
		head = append(head, flagEager)
		head = appendChunk(head, descXML)
		head = appendChunk(head, code)
	}
	body, err := entry.AppendObject(head, p.codec, v, p.reg)
	if err != nil {
		return err
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

// optimisticHead is an optimistic body's flag byte. Its capacity is
// its length, so the envelope writer copies it and never appends into
// it.
var optimisticHead = []byte{flagOptimistic}

// appendChunk appends chunk behind its 4-byte big-endian length;
// readChunk splits one such chunk off the front of src.
func appendChunk[T string | []byte](dst []byte, chunk T) []byte {
	return append(binary.BigEndian.AppendUint32(dst, uint32(len(chunk))), chunk...)
}

func readChunk(src []byte) (chunk, rest []byte, err error) {
	if len(src) < 4 {
		return nil, nil, fmt.Errorf("%w: short chunk header", ErrBadFrame)
	}
	n := uint64(binary.BigEndian.Uint32(src))
	if n > uint64(len(src)-4) {
		return nil, nil, fmt.Errorf("%w: chunk length %d", ErrBadFrame, n)
	}
	return src[4 : 4+n], src[4+n:], nil
}

// --- receiver side (Figure 1 steps 2-5) ------------------------------

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
	// The envelope reader decodes the payload into a pooled scratch
	// held for the whole call (handlers run concurrently, so it is not
	// per connection). It is dead by the time the call returns: every
	// decoder downstream, compiled and generic alike, copies what it
	// keeps.
	sc := bufpool.Get()
	defer bufpool.Put(sc)
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
			if err := p.cat.Learn(d); err != nil {
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

	env, payloadBuf, err := p.envReader.Unmarshal(body, sc.B)
	sc.B = payloadBuf
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
		bound, mapping, compiled, err := p.binder.Deserialize(codec, e, env.Payload, env.Type)
		if err != nil {
			return Delivery{}, err
		}
		if compiled {
			p.stats.add(cCompiledDeliveries, 1)
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
	obj, err := proxy.DecodeObject(codec, env.Payload)
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

// ensureDescription returns the description for ref, asking the
// remote peer only on a catalog miss (the optimistic protocol's
// on-demand step). Concurrent misses for the same type (the full ref —
// name and identity, so distinct versions never share a flight)
// collapse into one request, so a flash crowd of objects of a new type
// costs one round trip, not one per object.
func (p *Peer) ensureDescription(c *Conn, ref typedesc.TypeRef) (*typedesc.TypeDescription, error) {
	var d *typedesc.TypeDescription
	have := func() bool {
		var fromStore bool
		d, fromStore = p.cat.Lookup(ref)
		switch {
		case fromStore:
			p.stats.add(cDescStoreHits, 1)
		case d != nil:
			p.stats.add(cDescriptorHits, 1)
		}
		return d != nil
	}
	err := p.singleFlight(flightKey{kind: flightDesc, id: ref.Identity, name: ref.Name}, have,
		func() (err error) {
			d, err = p.fetchDescription(c, ref)
			return err
		})
	if err != nil {
		return nil, fmt.Errorf("transport: type info for %s: %w", ref, err)
	}
	return d, nil
}

func (p *Peer) fetchDescription(c *Conn, ref typedesc.TypeRef) (*typedesc.TypeDescription, error) {
	p.step(cTypeInfoRequests, EventTypeInfoRequested, ref)
	p.park() // counted work (see park): the reply or its timeout resolves this
	reply, err := c.request(MsgTypeInfoRequest, encodeRef(ref))
	p.unpark()
	if err != nil {
		return nil, err
	}
	d, err := xmlenc.UnmarshalDescription(reply.Body)
	if err != nil {
		return nil, fmt.Errorf("bad reply: %w", err)
	}
	if err := p.cat.LearnFetched(d); err != nil {
		return nil, err
	}
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
	if err := p.cat.LearnFetched(d); err != nil {
		return nil, err
	}
	return d, nil
}

// flightKey names one single-flight exchange: a description fetch,
// keyed by the full ref, or a code exchange, keyed by identity.
type flightKey struct {
	kind flightKind
	id   guid.GUID
	name string
}

type flightKind uint8

const (
	flightDesc flightKind = iota
	flightCode
)

// errFlightStalled reports a caller that waited out several flights
// on one key without the result appearing.
var errFlightStalled = errors.New("fetch did not converge")

// singleFlight runs fetch for key unless have reports the result
// already held. Concurrent callers coalesce: one claims the key and
// fetches while the others wait for its release and check have again.
// The claimant checks have once more before fetching, so a caller
// that missed while another flight was fetching, and claims only after
// it released, finds the result instead of fetching it a second time.
func (p *Peer) singleFlight(key flightKey, have func() bool, fetch func() error) error {
	for attempt := 0; attempt < 3; attempt++ {
		if have() {
			return nil
		}
		if p.afterMiss != nil {
			p.afterMiss(key)
		}
		p.mu.Lock()
		ch, busy := p.inflight[key]
		if !busy {
			ch = make(chan struct{})
			p.inflight[key] = ch
		}
		p.mu.Unlock()
		if busy {
			p.park() // handler context: the claimant's release resolves this
			<-ch
			p.unpark()
			continue
		}
		var err error
		if !have() {
			err = fetch()
		}
		p.mu.Lock()
		delete(p.inflight, key)
		p.mu.Unlock()
		close(ch)
		return err
	}
	return errFlightStalled
}

// downloadCodeOnce performs the Figure 1 code exchange the first time
// a type is seen. A failed download is not fatal: the object can
// still be delivered as a generic view.
func (p *Peer) downloadCodeOnce(c *Conn, ref typedesc.TypeRef, d *typedesc.TypeDescription) {
	_ = p.singleFlight(flightKey{kind: flightCode, id: d.Identity},
		func() bool { return p.cat.CodeSeen(d.Identity) },
		func() error {
			p.step(cCodeRequests, EventCodeRequested, ref)
			p.park() // handler context, as in fetchDescription
			_, err := c.request(MsgCodeRequest, encodeRef(ref))
			p.unpark()
			if err == nil {
				p.cat.MarkCodeSeen(d.Identity)
			}
			return err
		})
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
	d, _ := p.cat.Lookup(ref)
	if d == nil {
		_ = c.replyError(m, fmt.Errorf("unknown type %s", ref))
		return
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
		blob, err := entry.CodeBlob()
		if err != nil {
			_ = c.replyError(m, err)
			return
		}
		p.emit(EventCodeServed, entry.Description.Ref())
		_ = c.reply(m, MsgCodeReply, blob)
		return
	}
	d, err := p.reg.Resolve(ref)
	if err != nil {
		_ = c.replyError(m, fmt.Errorf("no code for %s", ref))
		return
	}
	xmlBytes, err := xmlenc.MarshalDescription(d)
	if err != nil {
		_ = c.replyError(m, err)
		return
	}
	p.emit(EventCodeServed, d.Ref())
	_ = c.reply(m, MsgCodeReply, registry.CodeBlob(xmlBytes))
}
