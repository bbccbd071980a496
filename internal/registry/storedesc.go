package registry

import (
	"pti/internal/guid"
	"pti/internal/typedesc"
	"pti/internal/xmlenc"
)

// FindDescription locates the stored description record for a type
// reference: the latest live version of the name when the reference
// carries no identity, otherwise the exact record whose identity
// matches (any version of any chain). Tombstoned records never match.
func FindDescription(s Store, ref typedesc.TypeRef) (Record, bool) {
	id := ""
	if !ref.Identity.IsNil() {
		id = ref.Identity.String()
	}
	if ref.Name != "" {
		rec, ok, err := s.Get(Key{Kind: KindDescription, Ref: ref.Name})
		if err == nil && ok && !rec.Tombstone && len(rec.Data) > 0 &&
			(id == "" || rec.Identity == id) {
			return rec, true
		}
	}
	if id == "" {
		return Record{}, false
	}
	recs, err := s.List(KindDescription)
	if err != nil {
		return Record{}, false
	}
	for _, rec := range recs {
		if rec.Identity == id && !rec.Tombstone && len(rec.Data) > 0 {
			return rec, true
		}
	}
	return Record{}, false
}

// StoreDescription persists a learned description into s. An identity
// the store already knows is left alone (the record is immutable per
// version; a tombstoned identity stays removed), otherwise the
// description is appended as the next version of its name chain.
func StoreDescription(s Store, d *typedesc.TypeDescription) error {
	recs, err := s.List(KindDescription)
	if err != nil {
		return err
	}
	id := d.Identity.String()
	var maxVer uint64
	for _, rec := range recs {
		if rec.Key.Ref != d.Name {
			continue
		}
		if rec.Key.Version > maxVer {
			maxVer = rec.Key.Version
		}
		if rec.Identity == id {
			return nil
		}
	}
	data, err := xmlenc.MarshalDescription(d)
	if err != nil {
		return err
	}
	return s.Put(Record{
		Key:      Key{Kind: KindDescription, Ref: d.Name, Version: maxVer + 1},
		Identity: id,
		Data:     data,
	})
}

// MarkCodeSeen records in s that the code blob for an identity has
// been downloaded, so a warm restart skips re-requesting it.
func MarkCodeSeen(s Store, identity string) error {
	return s.Put(Record{
		Key:      Key{Kind: KindCodeBlob, Ref: identity, Version: 1},
		Identity: identity,
	})
}

// CodeSeenIdentities returns the identities s has code records for.
func CodeSeenIdentities(s Store) []guid.GUID {
	recs, err := s.List(KindCodeBlob)
	if err != nil {
		return nil
	}
	out := make([]guid.GUID, 0, len(recs))
	for _, rec := range recs {
		// A record whose identity does not parse marks no type.
		if id, err := guid.Parse(rec.Identity); !rec.Tombstone && err == nil {
			out = append(out, id)
		}
	}
	return out
}
