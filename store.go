package pti

// This file is the facade over the PR 9 durable type registry: the
// pluggable Store API (MemStore, FileStore), the peer options that
// wire a store into the transport's description caches, and the
// Runtime methods exposing version chains and the change feed. See
// docs/registry.md for the contracts.

import (
	"pti/internal/registry"
	"pti/internal/transport"
)

// Durable registry store types, re-exported from the registry layer.
type (
	// Store is the pluggable persistence interface behind the
	// registry and the transport layer's description/code caches:
	// Put/Get/List over namespaced, versioned records plus a Watch
	// change feed. MemStore and FileStore implement it; bring your own
	// to put descriptions in a database.
	Store = registry.Store
	// MemStore is the in-memory Store (the default behind New).
	MemStore = registry.MemStore
	// FileStore is the crash-safe on-disk Store: atomic tempfile +
	// rename writes, an fsynced manifest, per-record corruption
	// detection with degraded loads.
	FileStore = registry.FileStore
	// StoreRecord is one stored artifact: a key, the type identity it
	// belongs to, a tombstone flag and the record bytes.
	StoreRecord = registry.Record
	// StoreKey names a record: kind, reference string and version
	// (version 0 on Get means "latest stored version").
	StoreKey = registry.Key
	// StoreEvent is one change-feed delta carrying the store's total
	// order in Seq.
	StoreEvent = registry.StoreEvent
	// StoreOp classifies a change-feed event (OpPut, OpTombstone).
	StoreOp = registry.Op
	// StoreRecordKind namespaces the records a Store holds.
	StoreRecordKind = registry.RecordKind
	// StoreCorruptionError details one corrupt FileStore record; match
	// the wrapper with errors.Is(err, ErrCorruptStore).
	StoreCorruptionError = registry.CorruptionError
)

// Record kinds a Store holds.
const (
	// KindDescription records hold a version's marshaled XML type
	// description, keyed by the chain name.
	KindDescription = registry.KindDescription
	// KindCodeBlob records hold the downloadable "assembly" bytes for
	// a type identity.
	KindCodeBlob = registry.KindCodeBlob
	// KindFingerprint records hold integrity witnesses for compiled
	// artifacts a warm restart trusts without re-fetching.
	KindFingerprint = registry.KindFingerprint
)

// Change-feed operations.
const (
	// OpPut: a record was stored (a registration or a new version).
	OpPut = registry.OpPut
	// OpTombstone: a version was tombstoned (unregistered).
	OpTombstone = registry.OpTombstone
)

// Store errors, matchable with errors.Is.
var (
	// ErrStoreClosed fails mutations against a closed store.
	ErrStoreClosed = registry.ErrStoreClosed
	// ErrBadRecord rejects malformed records before they reach disk.
	ErrBadRecord = registry.ErrBadRecord
	// ErrCorruptStore classifies load-time corruption; FileStore opens
	// degrade — the valid subset loads — rather than fail.
	ErrCorruptStore = registry.ErrCorruptStore
)

// NewMemStore returns an empty in-memory Store.
func NewMemStore() *MemStore { return registry.NewMemStore() }

// OpenFileStore opens (or creates) the crash-safe file Store at dir.
// A *StoreCorruptionError return still carries a usable store loaded
// from the valid subset of records.
func OpenFileStore(dir string) (*FileStore, error) { return registry.OpenFileStore(dir) }

// NewWithStore builds a Runtime whose registry is backed by s.
// Descriptions already in the store warm the runtime's resolver, and
// version numbering continues from the store's high-water mark, so a
// process restarting over a FileStore re-registers its types under
// their old version numbers instead of starting cold.
func NewWithStore(s Store, opts ...Option) (*Runtime, error) {
	reg, err := registry.NewWithStore(s)
	if err != nil {
		return nil, err
	}
	return buildRuntime(reg, opts...), nil
}

// WithStore gives a transport peer's description catalog a durable
// description/code cache: stored descriptions warm the peer on
// construction (a restart serves traffic with zero description
// fetches), the store is consulted before the wire, every description
// fetched from outside is written through, and the store's change
// feed keeps the catalog current. The caller keeps ownership of s.
func WithStore(s Store) PeerOption { return transport.WithStore(s) }

// WithStoreDir is WithStore over a crash-safe FileStore opened (or
// created) at dir each time the option is applied — under fabric
// Restart the rebuilt peer re-applies its options, so the directory
// is re-opened from disk exactly like a process warm restart. The
// peer owns the store and closes it with Close.
func WithStoreDir(dir string) PeerOption { return transport.WithStoreDir(dir) }

// Store returns the store backing this runtime's registry (the
// MemStore New installed, or whatever NewWithStore was given).
func (r *Runtime) Store() Store { return r.reg.Store() }

// Watch subscribes to the registry's change feed: one event per
// mutation (registration, new version, unregister tombstone), in
// store total order. cancel unsubscribes and closes the channel.
func (r *Runtime) Watch() (<-chan StoreEvent, func()) { return r.reg.Watch() }

// Unregister tombstones the latest live version registered under
// name. The version number stays burned — never reused — and name
// lookups fall back to the previous live version, so unregistering
// version 2 of a chain resurfaces version 1. It reports whether a
// live version was found.
func (r *Runtime) Unregister(name string) bool {
	return r.reg.Unregister(TypeRef{Name: name})
}

// Versions returns the live version numbers registered under name in
// ascending order (tombstoned versions are omitted).
func (r *Runtime) Versions(name string) []uint64 {
	return r.reg.Versions(TypeRef{Name: name})
}

// LookupVersion pins one version of a name's chain and returns its
// description: version 0 means latest live, any other version
// resolves iff that exact version is live.
func (r *Runtime) LookupVersion(name string, version uint64) (*TypeDescription, bool) {
	e, ok := r.reg.LookupVersion(TypeRef{Name: name}, version)
	if !ok {
		return nil, false
	}
	return e.Description, true
}
