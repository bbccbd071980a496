package transport

import (
	"reflect"
	"sync/atomic"
)

// counter indexes one protocol counter. The constants follow
// StatsSnapshot's fields one for one and in order, each named "c" plus
// its field (TestStatsTableMatchesSnapshot pins this), so the snapshot
// struct is the one names table.
type counter int

const (
	cBytesSent counter = iota
	cBytesReceived
	cObjectsSent
	cObjectsReceived
	cObjectsDelivered
	cObjectsDropped // never bumped: reads as the sum of the cDropped* counters
	cDroppedEmptyBody
	cDroppedUnknownFlag
	cDroppedBadEagerChunk
	cDroppedMalformedEnvelope
	cDroppedNoDescription
	cDroppedNoConformantType
	cDroppedBindFailed
	cCompiledDeliveries
	cDescRejected
	cTypeInfoRequests
	cCodeRequests
	cInvokes
	cInvokesShed
	cInvokePanics
	cDescriptorHits
	cDescStoreHits
	cDescWarmLoaded
	cDescFeedApplied
	cRelDataSent
	cRelWrites
	cRelRetransmits
	cRelAcksReceived
	cRelAcksSent
	cRelDeduped
	cRelNacksSent
	cRelFastRetransmits
	cRelQueueAbandoned
	cRelStaleEpoch
	cRelResumeDeduped
	cRelSessionsResumed
	cRelSessionsFresh
	cRelFramesReplayed
	cPeerSuspects
	cPeerQuarantines
	cPeerRecoveries
	cPeerRedials
	numCounters
)

// counterNames is StatsSnapshot's field names, indexed by counter.
var counterNames = func() (names [numCounters]string) {
	t := reflect.TypeOf(StatsSnapshot{})
	for c := range names {
		names[c] = t.Field(c).Name
	}
	return names
}()

// Stats counts protocol activity. Every counter is updated atomically;
// read them through Snapshot or Each. The benchmark harness reports
// these to quantify the paper's "saves network resources" claim for
// the optimistic protocol.
type Stats struct {
	c [numCounters]atomic.Uint64
}

// StatsSnapshot is an immutable copy of the counters. Every field is a
// uint64 counter; the fields and the transport's counter table are one
// list, in the same order.
type StatsSnapshot struct {
	BytesSent        uint64
	BytesReceived    uint64
	ObjectsSent      uint64
	ObjectsReceived  uint64
	ObjectsDelivered uint64
	// ObjectsDropped is the sum of the per-reason object drops below,
	// so ObjectsReceived = ObjectsDelivered + ObjectsDropped once every
	// received object has settled.
	ObjectsDropped uint64
	// Object drops by reason; each field counts one DropReason.
	DroppedEmptyBody         uint64 // DropEmptyBody
	DroppedUnknownFlag       uint64 // DropUnknownFlag
	DroppedBadEagerChunk     uint64 // DropBadEagerChunk
	DroppedMalformedEnvelope uint64 // DropMalformedEnvelope
	DroppedNoDescription     uint64 // DropNoDescription
	DroppedNoConformantType  uint64 // DropNoConformantType
	DroppedBindFailed        uint64 // DropBindFailed
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
	RelDataSent uint64 // reliable frames first-sent (excl. retransmits)
	// RelWrites counts the sender loops' raw writes, one per batch of
	// ready frames; frames per write is (RelDataSent + RelRetransmits
	// + RelFastRetransmits + RelFramesReplayed) / RelWrites.
	RelWrites       uint64
	RelRetransmits  uint64 // frames resent by the retransmit timer
	RelAcksReceived uint64 // cumulative acks that advanced the window
	RelAcksSent     uint64 // acks the receive side put on the wire
	RelDeduped      uint64 // received frames suppressed as duplicates/ghosts
	// Gap-repair and send-queue counters (zero until a receiver
	// detects a gap or a link dies with frames still queued).
	RelNacksSent       uint64 // gap reports emitted by the receive side
	RelFastRetransmits uint64 // frames resent on NACK, ahead of their timer
	RelQueueAbandoned  uint64 // queued frames discarded by link shutdown
	// Connection-lifecycle counters (zero unless the peer runs managed
	// remotes; see health.go and docs/health.md). The first two are
	// the reliable layer's drop reasons, DropStaleEpoch and
	// DropResumeDuplicate; they stay out of ObjectsDropped because
	// those frames never counted as received objects.
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

// add bumps one counter.
func (s *Stats) add(c counter, n uint64) { s.c[c].Add(n) }

// load reads one counter, summing the per-reason drops for
// cObjectsDropped.
func (s *Stats) load(c counter) uint64 {
	if c != cObjectsDropped {
		return s.c[c].Load()
	}
	var n uint64
	for d := cDroppedEmptyBody; d <= cDroppedBindFailed; d++ {
		n += s.c[d].Load()
	}
	return n
}

// Each calls fn with every counter's StatsSnapshot field name and
// current value, in field order.
func (s *Stats) Each(fn func(name string, v uint64)) {
	for c := counter(0); c < numCounters; c++ {
		fn(counterNames[c], s.load(c))
	}
}

// Snapshot returns the current counter values.
func (s *Stats) Snapshot() StatsSnapshot {
	var out StatsSnapshot
	v := reflect.ValueOf(&out).Elem()
	for c := counter(0); c < numCounters; c++ {
		v.Field(int(c)).SetUint(s.load(c))
	}
	return out
}

// Reset zeroes every counter.
func (s *Stats) Reset() {
	for c := range s.c {
		s.c[c].Store(0)
	}
}
