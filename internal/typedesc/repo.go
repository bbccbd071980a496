package typedesc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"pti/internal/guid"
)

// ErrNotFound is returned when a repository cannot resolve a
// reference.
var ErrNotFound = errors.New("typedesc: description not found")

// Resolver resolves a TypeRef to its full description. The
// conformance checker uses a Resolver to look at nested types
// (Section 5.2: descriptions are not recursive; nested descriptions
// "might already be available at the receiver side").
type Resolver interface {
	Resolve(ref TypeRef) (*TypeDescription, error)
}

// Repository is an in-memory, thread-safe description cache indexed
// by identity and by name. It plays the role of the receiver-side
// store that makes the transport protocol optimistic: a hit here
// skips the type-information round trip of Figure 1.
type Repository struct {
	mu     sync.RWMutex
	byID   map[guid.GUID]*TypeDescription
	byName map[string]*TypeDescription
	gen    atomic.Uint64 // counts Adds
}

var _ Resolver = (*Repository)(nil)

// NewRepository returns an empty Repository.
func NewRepository() *Repository {
	return &Repository{
		byID:   make(map[guid.GUID]*TypeDescription),
		byName: make(map[string]*TypeDescription),
	}
}

// Add stores d, replacing any previous description with the same
// identity. The description is cloned so later caller mutations do
// not corrupt the cache.
func (r *Repository) Add(d *TypeDescription) error {
	if d == nil {
		return fmt.Errorf("typedesc: Add nil description")
	}
	if d.Identity.IsNil() {
		return fmt.Errorf("typedesc: Add %q without identity", d.Name)
	}
	c := d.Clone()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.byID[c.Identity] = c
	if c.Name != "" {
		r.byName[c.Name] = c
	}
	r.gen.Add(1)
	return nil
}

// Generation returns the repository's change counter.
func (r *Repository) Generation() uint64 { return r.gen.Load() }

// Resolve implements Resolver: identity match first, then name.
func (r *Repository) Resolve(ref TypeRef) (*TypeDescription, error) {
	if d, ok := r.Lookup(ref); ok {
		return d, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrNotFound, ref)
}

// Lookup is Resolve without the miss error: probes that expect to
// miss (the optimistic protocol's cache checks) pay no allocation for
// it, and concurrent lookups share the read lock.
func (r *Repository) Lookup(ref TypeRef) (*TypeDescription, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if !ref.Identity.IsNil() {
		if d, ok := r.byID[ref.Identity]; ok {
			return d, true
		}
	}
	if ref.Name != "" {
		if d, ok := r.byName[ref.Name]; ok {
			return d, true
		}
	}
	return nil, false
}

// Contains reports whether the repository can resolve ref.
func (r *Repository) Contains(ref TypeRef) bool {
	_, ok := r.Lookup(ref)
	return ok
}

// Len returns the number of descriptions stored (by identity).
func (r *Repository) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byID)
}

// All returns a snapshot of every stored description.
func (r *Repository) All() []*TypeDescription {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*TypeDescription, 0, len(r.byID))
	for _, d := range r.byID {
		out = append(out, d)
	}
	return out
}

// ResolverFunc adapts a function to the Resolver interface.
type ResolverFunc func(ref TypeRef) (*TypeDescription, error)

// Resolve implements Resolver.
func (f ResolverFunc) Resolve(ref TypeRef) (*TypeDescription, error) { return f(ref) }
