package pti

// This file collects every functional option of the facade into five
// documented groups — runtime, registration, reliability, lifecycle,
// invoke and fabric — so the configuration surface reads as a menu
// rather than a heap. The durable-store options (WithStore,
// WithStoreDir, NewWithStore) live in store.go next to the Store API
// they configure. TestFacadeOptionSurface pins the list of option
// functions, so a new knob shows up as a test change.

import (
	"time"

	"pti/internal/registry"
	"pti/internal/transport"
	"pti/internal/wire"
)

// Option customizes a Runtime built by New or NewWithStore.
//
// # Runtime options
//
// Runtime options fix the properties every artifact derived from the
// runtime inherits: the conformance policy (WithPolicy), the payload
// codec (WithSOAP, WithBinary) and the conformance-cache bound
// (WithCacheCapacity). Peers, fabrics, brokers and markets built from
// the runtime all start from these defaults.
type Option func(*Runtime)

// WithPolicy sets the conformance policy (default RelaxedPolicy(1)).
func WithPolicy(p Policy) Option {
	return func(r *Runtime) { r.policy = p }
}

// WithSOAP selects the SOAP XML payload codec (default is binary).
func WithSOAP() Option {
	return func(r *Runtime) { r.codec = wire.SOAP{} }
}

// WithBinary selects the binary payload codec.
func WithBinary() Option {
	return func(r *Runtime) { r.codec = wire.Binary{} }
}

// WithCacheCapacity bounds the runtime's conformance cache — and the
// cache of every peer it builds — to roughly n entries with
// second-chance eviction (0 = unbounded, the default).
func WithCacheCapacity(n int) Option {
	return func(r *Runtime) { r.cacheCap = n }
}

// RegisterOption configures one Runtime.Register call.
//
// # Registration options
//
// Registration options attach metadata to the type being registered:
// constructors for rule (v) of the conformance rules
// (WithConstructor), download locations for Section 6.1 code shipping
// (WithDownloadPaths), and the logical chain name that places an
// evolved Go type in an existing version chain (WithTypeName — the
// entry point to the versioned registry, see docs/registry.md).
type RegisterOption = registry.Option

// WithConstructor declares a constructor for the registered type
// (rule (v) of the conformance rules compares constructors).
func WithConstructor(name string, fn interface{}) RegisterOption {
	return registry.WithConstructor(name, fn)
}

// WithDownloadPaths attaches download locations to the registered
// type (Section 6.1).
func WithDownloadPaths(paths ...string) RegisterOption {
	return registry.WithDownloadPaths(paths...)
}

// WithTypeName registers the type under a logical name instead of its
// Go canonical name, placing it in that name's version chain. This is
// how an evolved Go type — a new struct, hence a new structural
// identity — succeeds an older version of the same logical type:
// register both under one name and they coexist as version 1 and
// version 2, with Runtime.LookupVersion pinning either and name
// lookups resolving the latest live one (see docs/registry.md).
func WithTypeName(name string) RegisterOption {
	return registry.WithTypeName(name)
}

// PeerOption customizes a transport peer built by Runtime.NewPeer or
// Fabric.AddPeer.
//
// # Peer reliability options
//
// Reliability options shape how a peer moves frames: protocol
// tracing (WithObserver), the non-optimistic baseline (Eager), and
// the reliable delivery layer (WithReliableLinks plus the
// ReliableOption family) that builds exactly-once in-order delivery
// above an unreliable link — see docs/reliable.md. A reliable link
// always queues object frames (256 by default), estimates its
// retransmit timeout from measured RTT and repairs gaps on receiver
// NACKs; the options only size and bound that one sender.
type PeerOption = transport.PeerOption

// ProtocolEvent is one protocol trace record (Figure 1 steps made
// visible); attach a tracer with WithObserver.
type ProtocolEvent = transport.Event

// WithObserver traces the peer's protocol exchanges.
func WithObserver(obs func(ProtocolEvent)) PeerOption {
	return transport.WithObserver(obs)
}

// Eager switches a peer to the non-optimistic baseline: every object
// ships with its full type description and code blob inline.
func Eager() PeerOption { return transport.Eager() }

// ReliableOption tunes the reliable delivery layer (window size,
// retransmit timers, backoff, send queue); pass them to
// WithReliableLinks.
type ReliableOption = transport.ReliableOption

// OverflowPolicy selects what a full reliable send queue does with
// the next enqueue: block the caller or fail fast.
type OverflowPolicy = transport.OverflowPolicy

// Overflow policies for WithOverflowPolicy.
const (
	OverflowBlock = transport.OverflowBlock
	OverflowError = transport.OverflowError
)

// ErrPeerUnreachable classifies a reliable link's give-up: the remote
// end stopped acknowledging and the link abandoned it. Match with
// errors.Is against the aggregate error Peer.Broadcast returns.
var ErrPeerUnreachable = transport.ErrPeerUnreachable

// WithReliableLinks upgrades every connection the peer owns to
// exactly-once in-order delivery: sequence framing, cumulative acks,
// a bounded send queue drained through a bounded in-flight window,
// retransmit with exponential backoff from an RTT-estimated timeout,
// and NACK-driven repair — reliability built above the unreliable
// link rather than assumed from TCP (see docs/reliable.md).
func WithReliableLinks(opts ...ReliableOption) PeerOption {
	return transport.WithReliableLinks(opts...)
}

// WithWindow bounds unacked object frames in flight per connection
// (default 32).
func WithWindow(n int) ReliableOption { return transport.WithWindow(n) }

// WithRetransmitTimeout sets the per-frame retransmit timer used
// until the link has measured its first round trip (default 20ms).
func WithRetransmitTimeout(d time.Duration) ReliableOption {
	return transport.WithRetransmitTimeout(d)
}

// WithMaxBackoff caps the doubled retransmit interval and the
// estimated RTO (default 640ms).
func WithMaxBackoff(d time.Duration) ReliableOption { return transport.WithMaxBackoff(d) }

// WithMaxAttempts bounds transmissions per frame before the link
// gives up on its peer with a typed error matching ErrPeerUnreachable
// (default 0 = unlimited).
func WithMaxAttempts(n int) ReliableOption { return transport.WithMaxAttempts(n) }

// WithSendQueue resizes each connection's send queue to n object
// frames (default 256). Send/Broadcast enqueue and return, a sender
// goroutine drains each connection, and a stalled peer fills only its
// own queue — a reliable Broadcast is never held hostage by its worst
// connection.
func WithSendQueue(n int) ReliableOption { return transport.WithSendQueue(n) }

// WithOverflowPolicy picks what a full send queue does (default
// OverflowBlock).
func WithOverflowPolicy(p OverflowPolicy) ReliableOption {
	return transport.WithOverflowPolicy(p)
}

// WithAdaptiveRTO is a no-op kept for source compatibility.
//
// Deprecated: every reliable link estimates its retransmit timeout
// from measured RTT (SRTT + 4·RTTVAR, Jacobson/Karels, Karn sampling).
func WithAdaptiveRTO() ReliableOption { return func(*transport.ReliableConfig) {} }

// WithMinRTO floors the estimated RTO (default 2ms); set it above the
// path's worst round trip to rule out spurious retransmits on steady
// links.
func WithMinRTO(d time.Duration) ReliableOption { return transport.WithMinRTO(d) }

// Managed-remote health states: healthy → suspect → quarantined (see
// docs/health.md).
//
// # Peer lifecycle options
//
// Lifecycle options govern a peer's managed remotes from first dial
// to quarantine: liveness probing (WithHeartbeat, WithSuspectAfter)
// and reconnect shaping (WithRedialBackoff, WithMaxRedials).
// Quarantine is terminal until ManagedRemote.Retry — see
// docs/health.md.
const (
	HealthHealthy     = transport.HealthHealthy
	HealthSuspect     = transport.HealthSuspect
	HealthQuarantined = transport.HealthQuarantined
)

// WithHeartbeat sets the liveness probe cadence of managed remotes
// (default 500ms). Heartbeats piggyback on regular traffic — explicit
// pings go out only on idle links.
func WithHeartbeat(d time.Duration) PeerOption { return transport.WithHeartbeat(d) }

// WithSuspectAfter sets the silence that marks a managed remote
// suspect (default 4×heartbeat, floored by the measured RTT); twice
// it confirms the failure and triggers reconnect.
func WithSuspectAfter(d time.Duration) PeerOption { return transport.WithSuspectAfter(d) }

// WithRedialBackoff shapes a managed remote's reconnect delays:
// initial backoff, doubling per failure up to max (defaults 50ms, 2s).
func WithRedialBackoff(initial, max time.Duration) PeerOption {
	return transport.WithRedialBackoff(initial, max)
}

// WithMaxRedials quarantines a managed remote after n consecutive
// failed redials — the circuit breaker against redial storms (default
// 0 = never give up). Quarantine is terminal until
// ManagedRemote.Retry.
func WithMaxRedials(n int) PeerOption { return transport.WithMaxRedials(n) }

// WithInvokeConcurrency bounds the server side of the pipelined
// invoke path per connection: workers concurrent executions,
// queueDepth waiting beyond that, the rest shed with a reply matching
// ErrInvokeQueueFull.
//
// # Peer invoke options
//
// Invoke options bound the pass-by-reference invocation path on both
// sides of a connection: server-side worker and queue budgets
// (WithInvokeConcurrency) and client-side pacing of in-flight calls
// (WithInvokePacing) — see docs/remote.md.
func WithInvokeConcurrency(workers, queueDepth int) PeerOption {
	return transport.WithInvokeConcurrency(workers, queueDepth)
}

// WithInvokePacing bounds the client side: at most maxInflight
// invokes in flight per connection, tightened to budget/SRTT once the
// reliable link has measured the round trip (budget 0 disables the
// SRTT term).
func WithInvokePacing(maxInflight int, budget time.Duration) PeerOption {
	return transport.WithInvokePacing(maxInflight, budget)
}

// FabricOption customizes a simulation fabric built by
// Runtime.NewFabric.
//
// # Fabric options
//
// Fabric options configure the deterministic multi-peer simulation:
// today that is the discrete event clock (WithVirtualClock) that
// compresses injected latency so long scenarios replay in real
// seconds. Per-link faults are not options — they ride on the
// FaultProfile passed to Fabric.Connect.
type FabricOption = transport.FabricOption

// WithVirtualClock runs the fabric on a discrete event clock: link
// latency, request timeouts and retransmit timers jump to the next
// scheduled deadline instead of sleeping, compressing long scenario
// runs into real seconds while keeping seed replay intact.
func WithVirtualClock() FabricOption { return transport.WithVirtualClock() }
