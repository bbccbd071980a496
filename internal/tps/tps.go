// Package tps implements type-based publish/subscribe enhanced with
// type interoperability — the paper's first application (Section 8,
// citing Eugster/Guerraoui/Damm "On Objects and Events"). With plain
// TPS "the subscribers and the publishers must agree a priori on the
// types they want to transfer/receive"; enhancing TPS with implicit
// structural conformance removes that agreement: a subscriber
// interested in type T receives every published event whose type
// conforms to T, even when written independently under different
// member names.
package tps

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"

	"pti/internal/conform"
	"pti/internal/levenshtein"
	"pti/internal/proxy"
	"pti/internal/registry"
	"pti/internal/transport"
	"pti/internal/typedesc"
	"pti/internal/wire"
)

// Errors reported by the broker.
var (
	ErrBadEvent    = errors.New("tps: bad event")
	ErrBadInterest = errors.New("tps: bad type of interest")
)

// Event is one delivered notification. Bound is a native instance of
// the subscriber's type when one could be materialized; Invoker is a
// dynamic proxy over the published object (always present), mapped
// into the subscriber's vocabulary.
type Event struct {
	TypeName string
	Mapping  *conform.Mapping
	Bound    interface{}
	Invoker  *proxy.Invoker
}

// Handler consumes events.
type Handler func(Event)

// Subscription identifies one active subscription.
type Subscription struct {
	id     int
	broker *Broker
}

// Cancel removes the subscription.
func (s *Subscription) Cancel() {
	if s == nil || s.broker == nil {
		return
	}
	s.broker.cancel(s.id)
}

type sub struct {
	id      int
	desc    *typedesc.TypeDescription
	goType  reflect.Type
	pattern string
	handler Handler
}

// Broker is an in-process TPS broker with conformance-based matching.
// It is safe for concurrent use.
type Broker struct {
	reg     *registry.Registry
	cat     *registry.Catalog
	policy  conform.Policy
	checker *conform.Checker
	binder  *proxy.Binder

	mu     sync.Mutex
	subs   []*sub
	nextID int

	// idPlans memoizes passthrough invocation plans per published
	// event pointer type, for pattern deliveries of types the
	// registry does not know (registered types use Entry.PlanFor).
	idPlans sync.Map // reflect.Type -> *conform.Plan

	published atomic.Uint64
	delivered atomic.Uint64
	dropped   atomic.Uint64
}

// BrokerOption customizes a broker.
type BrokerOption func(*Broker)

// WithPolicy sets the conformance policy (default Relaxed(1)).
func WithPolicy(p conform.Policy) BrokerOption {
	return func(b *Broker) { b.policy = p }
}

// NewBroker builds a broker over a registry of locally known types.
func NewBroker(reg *registry.Registry, opts ...BrokerOption) *Broker {
	b := &Broker{
		reg:    reg,
		cat:    registry.NewCatalog(reg, nil, nil),
		policy: conform.Relaxed(1),
	}
	for _, opt := range opts {
		opt(b)
	}
	b.checker = conform.New(b.cat, conform.WithPolicy(b.policy), conform.WithCache(conform.NewCache()))
	b.binder = proxy.NewBinder(b.cat, b.checker)
	return b
}

// Subscribe registers interest in a type: an instance, reflect.Type
// or pointer-to-interface. The handler runs synchronously inside
// Publish, in subscription order.
func (b *Broker) Subscribe(typeOfInterest interface{}, handler Handler) (*Subscription, error) {
	if handler == nil {
		return nil, fmt.Errorf("%w: nil handler", ErrBadInterest)
	}
	t, ok := typeOfInterest.(reflect.Type)
	if !ok {
		t = reflect.TypeOf(typeOfInterest)
	}
	if t == nil {
		return nil, fmt.Errorf("%w: nil type", ErrBadInterest)
	}
	if t.Kind() == reflect.Ptr && t.Elem().Kind() == reflect.Interface {
		t = t.Elem()
	}
	for t.Kind() == reflect.Ptr {
		t = t.Elem()
	}

	var desc *typedesc.TypeDescription
	if e, found := b.reg.LookupGo(t); found {
		desc = e.Description
	} else {
		d, err := typedesc.Describe(t)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadInterest, err)
		}
		desc = d
		if err := b.cat.Learn(d); err != nil {
			return nil, err
		}
	}

	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextID++
	b.subs = append(b.subs, &sub{id: b.nextID, desc: desc, goType: t, handler: handler})
	return &Subscription{id: b.nextID, broker: b}, nil
}

// SubscribePattern registers interest in every published event whose
// *type name* matches the wildcard pattern ('*' any run, '?' one
// rune, case-insensitive) — the name-based generalization the paper
// mentions for rule (i). Pattern subscriptions receive the original
// object behind an identity-mapped invoker: no expected type means no
// member translation.
func (b *Broker) SubscribePattern(pattern string, handler Handler) (*Subscription, error) {
	if handler == nil {
		return nil, fmt.Errorf("%w: nil handler", ErrBadInterest)
	}
	if pattern == "" {
		return nil, fmt.Errorf("%w: empty pattern", ErrBadInterest)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextID++
	b.subs = append(b.subs, &sub{id: b.nextID, pattern: pattern, handler: handler})
	return &Subscription{id: b.nextID, broker: b}, nil
}

func (b *Broker) cancel(id int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, s := range b.subs {
		if s.id == id {
			b.subs = append(b.subs[:i], b.subs[i+1:]...)
			return
		}
	}
}

// SubscriberCount returns the number of active subscriptions.
func (b *Broker) SubscriberCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// Publish matches the event against every subscription and delivers
// to each conformant one. It returns the number of deliveries.
func (b *Broker) Publish(event interface{}) (int, error) {
	if event == nil {
		return 0, fmt.Errorf("%w: nil event", ErrBadEvent)
	}
	t := reflect.TypeOf(event)
	for t.Kind() == reflect.Ptr {
		t = t.Elem()
	}
	desc, err := b.describeEvent(t)
	if err != nil {
		return 0, err
	}
	b.published.Add(1)

	b.mu.Lock()
	subs := append([]*sub(nil), b.subs...)
	b.mu.Unlock()

	delivered := 0
	for _, s := range subs {
		var ev Event
		switch {
		case s.pattern != "":
			if !levenshtein.MatchWildcardFold(s.pattern, desc.Name) {
				continue
			}
			inv, err := proxy.NewInvokerWithPlan(event, nil, b.identityPlanOf(event, t))
			if err != nil {
				b.dropped.Add(1)
				continue
			}
			ev = Event{TypeName: desc.Name, Bound: event, Invoker: inv}
		default:
			r, err := b.checker.Check(desc, s.desc)
			if err != nil || !r.Conformant {
				continue
			}
			built, err := b.buildEvent(event, t, desc, s, r)
			if err != nil {
				b.dropped.Add(1)
				continue
			}
			ev = built
		}
		s.handler(ev)
		delivered++
		b.delivered.Add(1)
	}
	if delivered == 0 {
		b.dropped.Add(1)
	}
	return delivered, nil
}

// identityPlanOf returns the memoized passthrough plan for an event's
// pointer type: the registry entry's plan when the event type is
// registered, the broker's per-type plan map otherwise. Pattern
// deliveries dispatch identity-mapped invokers through it without
// recompiling per publish.
func (b *Broker) identityPlanOf(event interface{}, t reflect.Type) *conform.Plan {
	tt := conform.PlanTargetOf(event)
	if e, ok := b.reg.LookupGo(t); ok && reflect.PtrTo(e.Type) == tt {
		if p, err := e.PlanFor(nil); err == nil {
			return p
		}
	}
	if p, ok := b.idPlans.Load(tt); ok {
		return p.(*conform.Plan)
	}
	p, err := conform.CompilePlan(tt, nil)
	if err != nil {
		return nil // NewInvokerWithPlan compiles its own fallback
	}
	actual, _ := b.idPlans.LoadOrStore(tt, p)
	return actual.(*conform.Plan)
}

func (b *Broker) describeEvent(t reflect.Type) (*typedesc.TypeDescription, error) {
	if e, ok := b.reg.LookupGo(t); ok {
		return e.Description, nil
	}
	if d, _ := b.cat.Lookup(typedesc.RefOf(t)); d != nil {
		return d, nil
	}
	d, err := typedesc.Describe(t)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEvent, err)
	}
	if err := b.cat.Learn(d); err != nil {
		return nil, err
	}
	return d, nil
}

func (b *Broker) buildEvent(event interface{}, t reflect.Type, desc *typedesc.TypeDescription, s *sub, r *conform.Result) (Event, error) {
	// Reuse the invocation plan compiled alongside the cached
	// conformance result: a repeated publication of an already-checked
	// event type dispatches straight through precomputed indices.
	plan, err := b.checker.PlanFor(r, conform.PlanTargetOf(event))
	if err != nil {
		return Event{}, err
	}
	inv, err := proxy.NewInvokerWithPlan(event, r.Mapping, plan)
	if err != nil {
		return Event{}, err
	}
	ev := Event{TypeName: desc.Name, Mapping: r.Mapping, Invoker: inv}

	switch {
	case r.Mapping.Identity && t == s.goType:
		ev.Bound = event
	default:
		// Materialize a native instance of the subscriber's type
		// when it is locally constructible.
		if _, ok := b.reg.LookupGo(s.goType); ok && s.goType.Kind() == reflect.Struct {
			gv, err := wire.FromGo(event)
			if err == nil {
				if obj, ok := gv.(*wire.Object); ok {
					// The event self-describes under its chain name
					// and exact version, mirroring the wire path:
					// a V1 event must bind through V1's members even
					// when V2 is the latest holder of the name.
					obj.TypeName = desc.Name
					if bound, _, err := b.binder.BindRef(obj, desc.Ref(), s.desc.Ref()); err == nil {
						ev.Bound = bound
					}
				}
			}
		}
	}
	return ev, nil
}

// Stats returns cumulative published/delivered/dropped counts.
func (b *Broker) Stats() (published, delivered, dropped uint64) {
	return b.published.Load(), b.delivered.Load(), b.dropped.Load()
}

// AttachPeer bridges a transport peer into the broker: every object
// the peer receives matching typeOfInterest is re-published locally.
// This is the distributed TPS of Section 8: publishers on remote
// hosts, subscribers on this one, types unified by conformance.
func AttachPeer(b *Broker, p *transport.Peer, typeOfInterest interface{}) error {
	return p.OnReceive(typeOfInterest, func(d transport.Delivery) {
		if d.Bound != nil {
			_, _ = b.Publish(d.Bound)
		}
	})
}

// AttachNode bridges a simulation-fabric node into the broker, the
// scenario-testing form of AttachPeer: the node's peer — connected to
// the rest of the fabric through fault-injected virtual links — feeds
// every received conformant object into the local broker. Reattach
// after a crash/restart cycle; the restarted peer starts with no
// interests, exactly like a restarted process.
func AttachNode(b *Broker, n *transport.Node, typeOfInterest interface{}) error {
	p := n.Peer()
	if p == nil {
		// A down node is a liveness condition, not a bad interest:
		// callers retry after Restart.
		return fmt.Errorf("tps: attach %s: %w", n.Name(), transport.ErrNodeCrashed)
	}
	return AttachPeer(b, p, typeOfInterest)
}
