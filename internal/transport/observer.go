package transport

import (
	"fmt"
	"strings"

	"pti/internal/typedesc"
)

// EventKind classifies a protocol trace event. The kinds map directly
// onto the steps of the paper's Figure 1, plus the remoting and
// failure paths.
type EventKind int

// Protocol trace events.
const (
	// EventObjectSent: step 1, sender side.
	EventObjectSent EventKind = iota + 1
	// EventObjectReceived: step 1, receiver side.
	EventObjectReceived
	// EventTypeInfoRequested: step 2 (receiver asks).
	EventTypeInfoRequested
	// EventTypeInfoServed: step 3 (sender answers).
	EventTypeInfoServed
	// EventConformanceChecked: the rules check between steps 3 and 4.
	EventConformanceChecked
	// EventCodeRequested: step 4.
	EventCodeRequested
	// EventCodeServed: step 5, sender side.
	EventCodeServed
	// EventDelivered: "object usable".
	EventDelivered
	// EventDropped: no conformant interest, or a protocol failure.
	EventDropped
	// EventInvoked: a pass-by-reference invocation was serviced.
	EventInvoked
	// EventInvokeShed: an invocation was refused by load shedding
	// (worker+queue budget exhausted).
	EventInvokeShed
	// EventPeerSuspect: the failure detector confirmed a silent remote
	// and the reconnect loop took over the link.
	EventPeerSuspect
	// EventPeerQuarantined: the redial circuit breaker opened after
	// too many consecutive dial failures.
	EventPeerQuarantined
	// EventPeerRecovered: a suspect or quarantined remote reconnected
	// (detail names whether the reliable session was resumed).
	EventPeerRecovered
)

var eventNames = map[EventKind]string{
	EventObjectSent:         "object-sent",
	EventObjectReceived:     "object-received",
	EventTypeInfoRequested:  "type-info-requested",
	EventTypeInfoServed:     "type-info-served",
	EventConformanceChecked: "conformance-checked",
	EventCodeRequested:      "code-requested",
	EventCodeServed:         "code-served",
	EventDelivered:          "delivered",
	EventDropped:            "dropped",
	EventInvoked:            "invoked",
	EventInvokeShed:         "invoke-shed",
	EventPeerSuspect:        "peer-suspect",
	EventPeerQuarantined:    "peer-quarantined",
	EventPeerRecovered:      "peer-recovered",
}

// String returns the event kind's dashed name.
func (k EventKind) String() string {
	if s, ok := eventNames[k]; ok {
		return s
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// DropReason says why the transport discarded an inbound frame. Each
// reason is its own counter: the object-drop reasons are the Dropped*
// fields of StatsSnapshot, whose sum is ObjectsDropped; the reliable
// layer's two reasons count into RelStaleEpoch and RelResumeDeduped.
type DropReason int

// Drop reasons; String returns the text EventDropped carries as Detail.
const (
	DropEmptyBody         = DropReason(cDroppedEmptyBody)
	DropUnknownFlag       = DropReason(cDroppedUnknownFlag)
	DropBadEagerChunk     = DropReason(cDroppedBadEagerChunk)
	DropMalformedEnvelope = DropReason(cDroppedMalformedEnvelope)
	DropNoDescription     = DropReason(cDroppedNoDescription)
	DropNoConformantType  = DropReason(cDroppedNoConformantType)
	// DropBindFailed: the payload could not be bound to the matched
	// type of interest; the event's Err holds the cause.
	DropBindFailed      = DropReason(cDroppedBindFailed)
	DropStaleEpoch      = DropReason(cRelStaleEpoch)
	DropResumeDuplicate = DropReason(cRelResumeDeduped)
)

var dropNames = map[DropReason]string{
	DropEmptyBody:         "empty body",
	DropUnknownFlag:       "unknown body flag",
	DropBadEagerChunk:     "bad eager chunk",
	DropMalformedEnvelope: "malformed envelope",
	DropNoDescription:     "no type description",
	DropNoConformantType:  "no conformant type of interest",
	DropBindFailed:        "bind failed",
	DropStaleEpoch:        "stale epoch frame",
	DropResumeDuplicate:   "resume replay duplicate",
}

// String returns the reason's text ("" for the zero DropReason).
func (r DropReason) String() string { return dropNames[r] }

// Event is one protocol trace record.
type Event struct {
	Kind EventKind
	// Type is the type reference involved, when one is known.
	Type typedesc.TypeRef
	// Detail carries kind-specific context (conformance outcome,
	// drop reason, invoked method).
	Detail string
	// Reason is set on EventDropped.
	Reason DropReason
	// Err is the cause of a DropBindFailed drop; Detail is its text.
	Err error
}

// String renders "kind type (detail)".
func (e Event) String() string {
	s := e.Kind.String()
	if e.Type.Name != "" {
		s += " " + e.Type.Name
	}
	if e.Detail != "" {
		s += " (" + e.Detail + ")"
	}
	return s
}

// Observer receives protocol trace events. Observers are called
// synchronously on protocol goroutines and must be fast and
// non-blocking; they may be called concurrently.
type Observer func(Event)

// WithObserver attaches a protocol tracer to the peer.
func WithObserver(obs Observer) PeerOption {
	return func(p *Peer) { p.observer = obs }
}

// emit publishes an event to the observer, if any. The detail parts
// are concatenated only when an observer is attached, so an untraced
// peer formats nothing.
func (p *Peer) emit(kind EventKind, ref typedesc.TypeRef, detail ...string) {
	if p.observer == nil {
		return
	}
	p.observer(Event{Kind: kind, Type: ref, Detail: strings.Join(detail, "")})
}

// step counts one protocol step and publishes its event.
func (p *Peer) step(c counter, kind EventKind, ref typedesc.TypeRef, detail ...string) {
	p.stats.add(c, 1)
	p.emit(kind, ref, detail...)
}

// drop counts one discarded frame under its reason and publishes an
// EventDropped. err, when set, is the cause and becomes the Detail.
func (p *Peer) drop(r DropReason, ref typedesc.TypeRef, err error) {
	p.stats.add(counter(r), 1)
	if p.observer == nil {
		return
	}
	detail := r.String()
	if err != nil {
		detail = err.Error()
	}
	p.observer(Event{Kind: EventDropped, Type: ref, Detail: detail, Reason: r, Err: err})
}
