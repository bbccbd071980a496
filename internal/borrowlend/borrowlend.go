// Package borrowlend implements the borrow/lend (BL) abstraction —
// the paper's second application (Section 8, citing Eugster/Baehni
// "Abstracting Remote Object Interaction in a Peer-2-Peer
// Environment"): "lenders can lend resources to borrowers via
// specific criteria. A possible criterion is type conformance, for a
// type T1 with which the lent resource's type T2 must conform."
package borrowlend

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"time"

	"pti/internal/conform"
	"pti/internal/proxy"
	"pti/internal/registry"
	"pti/internal/transport"
	"pti/internal/typedesc"
)

// Errors reported by the market.
var (
	ErrNoMatch       = errors.New("borrowlend: no conformant resource available")
	ErrAlreadyLent   = errors.New("borrowlend: resource id already lent")
	ErrAlreadyOnLoan = errors.New("borrowlend: resource is on loan")
	ErrNotOnLoan     = errors.New("borrowlend: loan already returned")
)

// Offer is one lent resource.
type Offer struct {
	ID       string
	Resource interface{}
	Desc     *typedesc.TypeDescription
	// Lease bounds how long a single loan may last; zero means
	// unlimited. Expired loans are reclaimed lazily by the market.
	Lease time.Duration

	onLoan   bool
	deadline time.Time
	// generation increments on every successful borrow so a stale
	// (expired, reclaimed) Loan cannot release a successor's loan.
	generation uint64
}

// Market matches lenders' offers with borrowers' types of interest
// through implicit structural conformance.
type Market struct {
	reg     *registry.Registry
	cat     *registry.Catalog
	policy  conform.Policy
	checker *conform.Checker
	now     func() time.Time

	mu     sync.Mutex
	offers []*Offer // insertion order: deterministic matching
}

// MarketOption customizes a market.
type MarketOption func(*Market)

// WithPolicy sets the conformance policy (default Relaxed(1)).
func WithPolicy(p conform.Policy) MarketOption {
	return func(m *Market) { m.policy = p }
}

// WithClock injects the market's time source (tests).
func WithClock(now func() time.Time) MarketOption {
	return func(m *Market) { m.now = now }
}

// NewMarket builds a market over a registry of known types.
func NewMarket(reg *registry.Registry, opts ...MarketOption) *Market {
	m := &Market{
		reg:    reg,
		cat:    registry.NewCatalog(reg, nil, nil),
		policy: conform.Relaxed(1),
		now:    time.Now,
	}
	for _, opt := range opts {
		opt(m)
	}
	m.checker = conform.New(m.cat, conform.WithPolicy(m.policy), conform.WithCache(conform.NewCache()))
	return m
}

// LendOption configures one offer.
type LendOption func(*Offer)

// WithLease bounds each loan of this offer to d; an expired loan is
// reclaimed by the market on the next Borrow or Offers call.
func WithLease(d time.Duration) LendOption {
	return func(o *Offer) { o.Lease = d }
}

// Lend offers a resource under a unique id.
func (m *Market) Lend(id string, resource interface{}, opts ...LendOption) (*Offer, error) {
	if id == "" || resource == nil {
		return nil, fmt.Errorf("borrowlend: Lend needs an id and a resource")
	}
	t := reflect.TypeOf(resource)
	for t.Kind() == reflect.Ptr {
		t = t.Elem()
	}
	var desc *typedesc.TypeDescription
	if e, ok := m.reg.LookupGo(t); ok {
		desc = e.Description
	} else {
		d, err := typedesc.Describe(t)
		if err != nil {
			return nil, fmt.Errorf("borrowlend: describe resource: %w", err)
		}
		desc = d
		if err := m.cat.Learn(d); err != nil {
			return nil, err
		}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	for _, o := range m.offers {
		if o.ID == id {
			return nil, fmt.Errorf("%w: %q", ErrAlreadyLent, id)
		}
	}
	offer := &Offer{ID: id, Resource: resource, Desc: desc}
	for _, opt := range opts {
		opt(offer)
	}
	m.offers = append(m.offers, offer)
	return offer, nil
}

// reapLocked returns expired loans to the market. Callers hold m.mu.
func (m *Market) reapLocked() {
	now := m.now()
	for _, o := range m.offers {
		if o.onLoan && !o.deadline.IsZero() && now.After(o.deadline) {
			o.onLoan = false
			o.deadline = time.Time{}
		}
	}
}

// Retract withdraws an offer that is not currently on loan.
func (m *Market) Retract(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, o := range m.offers {
		if o.ID == id {
			if o.onLoan {
				return fmt.Errorf("%w: %q", ErrAlreadyOnLoan, id)
			}
			m.offers = append(m.offers[:i], m.offers[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("borrowlend: no offer %q", id)
}

// Offers returns a snapshot of available (not on-loan) offer ids.
func (m *Market) Offers() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reapLocked()
	out := make([]string, 0, len(m.offers))
	for _, o := range m.offers {
		if !o.onLoan {
			out = append(out, o.ID)
		}
	}
	return out
}

// Loan is a borrowed resource accessed through the expected type's
// vocabulary.
type Loan struct {
	Offer   *Offer
	Mapping *conform.Mapping
	Invoker *proxy.Invoker

	market     *Market
	generation uint64
	returned   bool
	mu         sync.Mutex
}

// Borrow finds the first available offer whose type conforms to the
// type of interest (an instance, reflect.Type or pointer to
// interface) and places it on loan.
func (m *Market) Borrow(typeOfInterest interface{}) (*Loan, error) {
	t, ok := typeOfInterest.(reflect.Type)
	if !ok {
		t = reflect.TypeOf(typeOfInterest)
	}
	if t == nil {
		return nil, fmt.Errorf("borrowlend: Borrow(nil)")
	}
	if t.Kind() == reflect.Ptr && t.Elem().Kind() == reflect.Interface {
		t = t.Elem()
	}
	for t.Kind() == reflect.Ptr {
		t = t.Elem()
	}
	var expDesc *typedesc.TypeDescription
	if e, found := m.reg.LookupGo(t); found {
		expDesc = e.Description
	} else {
		d, err := typedesc.Describe(t)
		if err != nil {
			return nil, fmt.Errorf("borrowlend: describe interest: %w", err)
		}
		expDesc = d
		if err := m.cat.Learn(d); err != nil {
			return nil, err
		}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	m.reapLocked()
	for _, o := range m.offers {
		if o.onLoan {
			continue
		}
		r, err := m.checker.Check(o.Desc, expDesc)
		if err != nil || !r.Conformant {
			continue
		}
		inv, err := proxy.NewInvoker(o.Resource, r.Mapping)
		if err != nil {
			continue
		}
		o.onLoan = true
		o.generation++
		if o.Lease > 0 {
			o.deadline = m.now().Add(o.Lease)
		}
		return &Loan{
			Offer:      o,
			Mapping:    r.Mapping,
			Invoker:    inv,
			market:     m,
			generation: o.generation,
		}, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrNoMatch, expDesc.Name)
}

// Return gives the resource back to the market. Returning an expired
// (already reclaimed) loan reports ErrNotOnLoan.
func (l *Loan) Return() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.returned {
		return ErrNotOnLoan
	}
	l.returned = true
	l.market.mu.Lock()
	defer l.market.mu.Unlock()
	if !l.Offer.onLoan || l.Offer.generation != l.generation {
		return ErrNotOnLoan // reclaimed by lease expiry (and possibly re-lent)
	}
	l.Offer.onLoan = false
	l.Offer.deadline = time.Time{}
	return nil
}

// BorrowRemote borrows an object exported on a remote peer through a
// connection, returning a remote reference whose invocations carry
// the conformance mapping — the distributed BL of the paper, built on
// pass-by-reference semantics.
func BorrowRemote(p *transport.Peer, c *transport.Conn, name string, expected interface{}) (*transport.RemoteRef, error) {
	return p.Remote(c, name, expected)
}
