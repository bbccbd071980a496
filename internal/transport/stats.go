package transport

import "sync/atomic"

// Stats counts protocol activity. All fields are updated atomically;
// read them through Snapshot. The benchmark harness reports these to
// quantify the paper's "saves network resources" claim for the
// optimistic protocol.
type Stats struct {
	bytesSent          atomic.Uint64
	bytesReceived      atomic.Uint64
	objectsSent        atomic.Uint64
	objectsReceived    atomic.Uint64
	objectsDelivered   atomic.Uint64
	objectsDropped     atomic.Uint64
	compiledDeliveries atomic.Uint64
	descRejected       atomic.Uint64
	typeInfoRequests   atomic.Uint64
	codeRequests       atomic.Uint64
	invokes            atomic.Uint64
	invokesShed        atomic.Uint64
	invokePanics       atomic.Uint64
	descriptorHits     atomic.Uint64
	descStoreHits      atomic.Uint64
	descWarmLoaded     atomic.Uint64
	descFeedApplied    atomic.Uint64
	relDataSent        atomic.Uint64
	relRetransmits     atomic.Uint64
	relAcksReceived    atomic.Uint64
	relDeduped         atomic.Uint64
	relNacksSent       atomic.Uint64
	relFastRetransmits atomic.Uint64
	relQueueAbandoned  atomic.Uint64
	relStaleEpoch      atomic.Uint64
	relResumeDeduped   atomic.Uint64
	relSessionsResumed atomic.Uint64
	relSessionsFresh   atomic.Uint64
	relFramesReplayed  atomic.Uint64
	peerSuspects       atomic.Uint64
	peerQuarantines    atomic.Uint64
	peerRecoveries     atomic.Uint64
	peerRedials        atomic.Uint64
}

// StatsSnapshot is an immutable copy of the counters.
type StatsSnapshot struct {
	BytesSent        uint64
	BytesReceived    uint64
	ObjectsSent      uint64
	ObjectsReceived  uint64
	ObjectsDelivered uint64
	ObjectsDropped   uint64
	// CompiledDeliveries counts deliveries whose payload was decoded
	// straight into the registered Go type by the compiled receive
	// path (no generic tree, no rebind).
	CompiledDeliveries uint64
	// DescRejected counts inline type descriptions the remote
	// repository refused (e.g. identity clashes); the delivery itself
	// proceeds on the inline copy.
	DescRejected     uint64
	TypeInfoRequests uint64
	CodeRequests     uint64
	Invokes          uint64
	InvokesShed      uint64 // invoke requests refused by load shedding
	InvokePanics     uint64 // exported methods that panicked (recovered)
	DescriptorHits   uint64
	// Registry-store counters (zero unless the peer runs WithStore;
	// see docs/registry.md).
	DescStoreHits   uint64 // descriptions served from the store instead of the wire
	DescWarmLoaded  uint64 // descriptions preloaded from the store at peer construction
	DescFeedApplied uint64 // change-feed description deltas applied to the remote repo
	// Reliable-layer counters (zero unless WithReliableLinks is on or
	// a reliable remote is sending to this peer).
	RelDataSent     uint64 // reliable frames first-sent (excl. retransmits)
	RelRetransmits  uint64 // frames resent by the retransmit timer
	RelAcksReceived uint64 // cumulative acks that advanced the window
	RelDeduped      uint64 // received frames suppressed as duplicates/ghosts
	// Gap-repair and send-queue counters (zero until a receiver
	// detects a gap or a link dies with frames still queued).
	RelNacksSent       uint64 // gap reports emitted by the receive side
	RelFastRetransmits uint64 // frames resent on NACK, ahead of their timer
	RelQueueAbandoned  uint64 // queued frames discarded by link shutdown
	// Connection-lifecycle counters (zero unless the peer runs managed
	// remotes; see health.go and docs/health.md).
	RelStaleEpoch      uint64 // frames from an older epoch, dropped as ghosts
	RelResumeDeduped   uint64 // resume-replay frames the receiver had already committed
	RelSessionsResumed uint64 // redials that continued an existing reliable session
	RelSessionsFresh   uint64 // redials that rolled a fresh epoch and replayed from scratch
	RelFramesReplayed  uint64 // in-flight frames replayed across a reconnect
	PeerSuspects       uint64 // failure-detector suspect transitions
	PeerQuarantines    uint64 // remotes quarantined by the redial circuit breaker
	PeerRecoveries     uint64 // remotes that returned to healthy after suspect/quarantine
	PeerRedials        uint64 // dial attempts made by the reconnect loop
}

// Snapshot returns the current counter values.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		BytesSent:          s.bytesSent.Load(),
		BytesReceived:      s.bytesReceived.Load(),
		ObjectsSent:        s.objectsSent.Load(),
		ObjectsReceived:    s.objectsReceived.Load(),
		ObjectsDelivered:   s.objectsDelivered.Load(),
		ObjectsDropped:     s.objectsDropped.Load(),
		CompiledDeliveries: s.compiledDeliveries.Load(),
		DescRejected:       s.descRejected.Load(),
		TypeInfoRequests:   s.typeInfoRequests.Load(),
		CodeRequests:       s.codeRequests.Load(),
		Invokes:            s.invokes.Load(),
		InvokesShed:        s.invokesShed.Load(),
		InvokePanics:       s.invokePanics.Load(),
		DescriptorHits:     s.descriptorHits.Load(),
		DescStoreHits:      s.descStoreHits.Load(),
		DescWarmLoaded:     s.descWarmLoaded.Load(),
		DescFeedApplied:    s.descFeedApplied.Load(),
		RelDataSent:        s.relDataSent.Load(),
		RelRetransmits:     s.relRetransmits.Load(),
		RelAcksReceived:    s.relAcksReceived.Load(),
		RelDeduped:         s.relDeduped.Load(),
		RelNacksSent:       s.relNacksSent.Load(),
		RelFastRetransmits: s.relFastRetransmits.Load(),
		RelQueueAbandoned:  s.relQueueAbandoned.Load(),
		RelStaleEpoch:      s.relStaleEpoch.Load(),
		RelResumeDeduped:   s.relResumeDeduped.Load(),
		RelSessionsResumed: s.relSessionsResumed.Load(),
		RelSessionsFresh:   s.relSessionsFresh.Load(),
		RelFramesReplayed:  s.relFramesReplayed.Load(),
		PeerSuspects:       s.peerSuspects.Load(),
		PeerQuarantines:    s.peerQuarantines.Load(),
		PeerRecoveries:     s.peerRecoveries.Load(),
		PeerRedials:        s.peerRedials.Load(),
	}
}

// Reset zeroes every counter.
func (s *Stats) Reset() {
	s.bytesSent.Store(0)
	s.bytesReceived.Store(0)
	s.objectsSent.Store(0)
	s.objectsReceived.Store(0)
	s.objectsDelivered.Store(0)
	s.objectsDropped.Store(0)
	s.compiledDeliveries.Store(0)
	s.descRejected.Store(0)
	s.typeInfoRequests.Store(0)
	s.codeRequests.Store(0)
	s.invokes.Store(0)
	s.invokesShed.Store(0)
	s.invokePanics.Store(0)
	s.descriptorHits.Store(0)
	s.descStoreHits.Store(0)
	s.descWarmLoaded.Store(0)
	s.descFeedApplied.Store(0)
	s.relDataSent.Store(0)
	s.relRetransmits.Store(0)
	s.relAcksReceived.Store(0)
	s.relDeduped.Store(0)
	s.relNacksSent.Store(0)
	s.relFastRetransmits.Store(0)
	s.relQueueAbandoned.Store(0)
	s.relStaleEpoch.Store(0)
	s.relResumeDeduped.Store(0)
	s.relSessionsResumed.Store(0)
	s.relSessionsFresh.Store(0)
	s.relFramesReplayed.Store(0)
	s.peerSuspects.Store(0)
	s.peerQuarantines.Store(0)
	s.peerRecoveries.Store(0)
	s.peerRedials.Store(0)
}
