package registry

import (
	"fmt"
	"sync"

	"pti/internal/guid"
	"pti/internal/typedesc"
	"pti/internal/xmlenc"
)

// Catalog is one participant's answer to "do I already hold this type
// description?": the receiver-side cache of Figure 1 that makes the
// transport optimistic, and the resolver its conformance checker and
// binder consult for nested types (Section 5.2). A lookup tries the
// registry's descriptions, then the ones learned from other
// participants, then the attached store. The catalog also keeps which
// types' code has been fetched.
//
// With a store attached, the catalog warm-loads the store's
// descriptions and code-seen markers at construction, folds the
// store's change feed into the learned descriptions until Close, and
// writes fetched descriptions and code-seen markers through, so the
// participant's next incarnation starts warm.
type Catalog struct {
	reg     *Registry
	learned *typedesc.Repository
	store   Store
	onFold  func(fromFeed bool)
	cancel  func()        // stops the change feed
	folding chan struct{} // closed when the feed's folding goroutine exits

	mu       sync.Mutex
	codeSeen map[guid.GUID]bool
}

var _ typedesc.Resolver = (*Catalog)(nil)

// NewCatalog returns the catalog of a participant over its registry.
// store may be nil. onFold, when set, is called once per description
// folded in from the store outside a lookup: with fromFeed false
// during the warm load, true for each change-feed delta.
func NewCatalog(reg *Registry, store Store, onFold func(fromFeed bool)) *Catalog {
	c := &Catalog{
		reg:      reg,
		learned:  typedesc.NewRepository(),
		store:    store,
		onFold:   onFold,
		codeSeen: make(map[guid.GUID]bool),
	}
	if store == nil {
		return c
	}
	// Load failures are tolerated record by record: a degraded store
	// serves what it can and the rest falls back to the wire.
	recs, _ := store.List(KindDescription)
	for _, rec := range recs {
		c.fold(rec, false)
	}
	codes, _ := store.List(KindCodeBlob)
	for _, rec := range codes {
		// A record whose identity does not parse marks no type.
		if id, err := guid.Parse(rec.Identity); !rec.Tombstone && err == nil {
			c.codeSeen[id] = true
		}
	}
	events, cancel := store.Watch()
	c.cancel, c.folding = cancel, make(chan struct{})
	go func() {
		defer close(c.folding)
		for ev := range events {
			if ev.Record.Key.Kind == KindDescription {
				c.fold(ev.Record, true)
			}
		}
	}()
	return c
}

// fold adds a stored description record to the learned descriptions.
// Tombstones are skipped: identity-pinned resolution of objects
// already received must keep working.
func (c *Catalog) fold(rec Record, fromFeed bool) {
	if rec.Tombstone || len(rec.Data) == 0 {
		return
	}
	d, err := xmlenc.UnmarshalDescription(rec.Data)
	if err != nil || c.learned.Add(d) != nil {
		return
	}
	if c.onFold != nil {
		c.onFold(fromFeed)
	}
}

// Close stops folding the store's change feed and returns once the
// folding has stopped. The store stays open; its owner closes it.
func (c *Catalog) Close() {
	if c.cancel != nil {
		c.cancel()
		<-c.folding
	}
}

// Registry returns the registry the catalog consults first.
func (c *Catalog) Registry() *Registry { return c.reg }

// Lookup returns the description for ref, or nil: the registry's
// first, then the learned ones, then the attached store, whose hit
// (fromStore) is folded into the learned descriptions. A miss
// allocates nothing before it reaches the store.
func (c *Catalog) Lookup(ref typedesc.TypeRef) (d *typedesc.TypeDescription, fromStore bool) {
	if d, ok := c.reg.repo.Lookup(ref); ok {
		return d, false
	}
	if d, ok := c.learned.Lookup(ref); ok {
		return d, false
	}
	if c.store == nil {
		return nil, false
	}
	rec, ok := c.findStored(ref)
	if !ok {
		return nil, false
	}
	d, err := xmlenc.UnmarshalDescription(rec.Data)
	if err != nil || c.learned.Add(d) != nil {
		return nil, false
	}
	return d, true
}

// findStored locates the stored record for ref: the latest live
// version of the name when ref carries no identity, otherwise the
// record whose identity matches (any version of any chain).
// Tombstoned records never match.
func (c *Catalog) findStored(ref typedesc.TypeRef) (Record, bool) {
	id := ""
	if !ref.Identity.IsNil() {
		id = ref.Identity.String()
	}
	if ref.Name != "" {
		rec, ok, err := c.store.Get(Key{Kind: KindDescription, Ref: ref.Name})
		if err == nil && ok && !rec.Tombstone && len(rec.Data) > 0 &&
			(id == "" || rec.Identity == id) {
			return rec, true
		}
	}
	if id == "" {
		return Record{}, false
	}
	recs, _ := c.store.List(KindDescription)
	for _, rec := range recs {
		if rec.Identity == id && !rec.Tombstone && len(rec.Data) > 0 {
			return rec, true
		}
	}
	return Record{}, false
}

// Resolve implements typedesc.Resolver over Lookup.
func (c *Catalog) Resolve(ref typedesc.TypeRef) (*typedesc.TypeDescription, error) {
	if d, _ := c.Lookup(ref); d != nil {
		return d, nil
	}
	return nil, fmt.Errorf("%w: %s", typedesc.ErrNotFound, ref)
}

// Learn adds a description the participant knows locally (a type of
// interest, an export, an inline copy) to memory only.
func (c *Catalog) Learn(d *typedesc.TypeDescription) error { return c.learned.Add(d) }

// LearnFetched adds a description fetched from outside (over the wire
// or a download path) and writes it through to the attached store.
// The write-through is best-effort: a store failure never fails the
// caller.
func (c *Catalog) LearnFetched(d *typedesc.TypeDescription) error {
	if err := c.learned.Add(d); err != nil {
		return err
	}
	if c.store != nil {
		_ = c.persist(d)
	}
	return nil
}

// persist appends d to the store as the next version of its name
// chain. An identity the store already knows is left alone: records
// are immutable per version, and a tombstoned identity stays removed.
func (c *Catalog) persist(d *typedesc.TypeDescription) error {
	recs, err := c.store.List(KindDescription)
	if err != nil {
		return err
	}
	id := d.Identity.String()
	var maxVer uint64
	for _, rec := range recs {
		if rec.Key.Ref != d.Name {
			continue
		}
		if rec.Identity == id {
			return nil
		}
		maxVer = max(maxVer, rec.Key.Version)
	}
	data, err := xmlenc.MarshalDescription(d)
	if err != nil {
		return err
	}
	return c.store.Put(Record{
		Key:      Key{Kind: KindDescription, Ref: d.Name, Version: maxVer + 1},
		Identity: id,
		Data:     data,
	})
}

// Generation changes whenever a lookup could answer differently: it
// counts the registry's mutations and the descriptions learned.
func (c *Catalog) Generation() uint64 {
	return c.reg.Generation() + c.learned.Generation()
}

// CodeSeen reports whether the code for the type identity id has been
// fetched, by this incarnation or, through the store, an earlier one.
func (c *Catalog) CodeSeen(id guid.GUID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.codeSeen[id]
}

// MarkCodeSeen records that the code for id has been fetched and
// persists the marker, so a warm restart skips the code exchange
// along with the description fetch.
func (c *Catalog) MarkCodeSeen(id guid.GUID) {
	c.mu.Lock()
	c.codeSeen[id] = true
	c.mu.Unlock()
	if c.store != nil {
		s := id.String()
		_ = c.store.Put(Record{Key: Key{Kind: KindCodeBlob, Ref: s, Version: 1}, Identity: s})
	}
}
