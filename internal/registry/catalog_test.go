package registry

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"pti/internal/typedesc"
)

type catLocal struct{ A int }

type catLearned struct{ B string }

type catFetched struct{ C float64 }

func describeFor(t *testing.T, v interface{}) *typedesc.TypeDescription {
	t.Helper()
	d, err := typedesc.Describe(reflect.TypeOf(v))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestCatalogLookupOrderAndWriteThrough: the registry answers first,
// then the learned descriptions; only a fetched description reaches
// the store, and every addition moves the generation.
func TestCatalogLookupOrderAndWriteThrough(t *testing.T) {
	reg := New()
	entry, err := reg.Register(catLocal{})
	if err != nil {
		t.Fatal(err)
	}
	store := NewMemStore()
	defer func() { _ = store.Close() }()
	cat := NewCatalog(reg, store, nil)
	defer cat.Close()

	if d, fromStore := cat.Lookup(entry.Description.Ref()); d == nil || d.Identity != entry.Description.Identity || fromStore {
		t.Fatalf("registry lookup = %v, %v; want the entry's description from memory", d, fromStore)
	}
	learned, fetched := describeFor(t, catLearned{}), describeFor(t, catFetched{})
	if d, _ := cat.Lookup(learned.Ref()); d != nil {
		t.Fatalf("lookup before Learn found %s", d.Name)
	}
	gen := cat.Generation()
	if err := cat.Learn(learned); err != nil {
		t.Fatal(err)
	}
	if err := cat.LearnFetched(fetched); err != nil {
		t.Fatal(err)
	}
	if g := cat.Generation(); g == gen {
		t.Error("generation did not move on Learn")
	}
	for _, d := range []*typedesc.TypeDescription{learned, fetched} {
		if got, err := cat.Resolve(d.Ref()); err != nil || got.Identity != d.Identity {
			t.Errorf("Resolve(%s) = %v, %v", d.Name, got, err)
		}
	}
	recs, _ := store.List(KindDescription)
	stored := map[string]bool{}
	for _, rec := range recs {
		stored[rec.Identity] = true
	}
	if stored[learned.Identity.String()] || !stored[fetched.Identity.String()] {
		t.Errorf("store holds %v: want the fetched description only", stored)
	}
}

// TestCatalogStoreWarmLoadFeedAndCodeSeen: a second catalog over the
// same store warm-loads what the first fetched and the code it saw,
// folds later fetches through the change feed, and counts each fold.
func TestCatalogStoreWarmLoadFeedAndCodeSeen(t *testing.T) {
	store := NewMemStore()
	defer func() { _ = store.Close() }()
	first := NewCatalog(New(), store, nil)
	defer first.Close()
	fetched := describeFor(t, catFetched{})
	if err := first.LearnFetched(fetched); err != nil {
		t.Fatal(err)
	}
	first.MarkCodeSeen(fetched.Identity)

	var warm, feed atomic.Int64
	second := NewCatalog(New(), store, func(fromFeed bool) {
		if fromFeed {
			feed.Add(1)
		} else {
			warm.Add(1)
		}
	})
	defer second.Close()
	if warm.Load() != 1 {
		t.Errorf("warm-loaded %d descriptions, want 1", warm.Load())
	}
	if d, fromStore := second.Lookup(fetched.Ref()); d == nil || fromStore {
		t.Errorf("warm-loaded lookup = %v, fromStore %v; want a memory hit", d, fromStore)
	}
	if !second.CodeSeen(fetched.Identity) {
		t.Error("code-seen marker not warm-loaded")
	}

	learned := describeFor(t, catLearned{})
	if err := first.LearnFetched(learned); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for feed.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if d, _ := second.Lookup(learned.Ref()); d == nil || feed.Load() != 1 {
		t.Errorf("feed folded %d descriptions, lookup %v; want 1 and a hit", feed.Load(), d)
	}
}

// TestCatalogStoreHitFoldsIntoMemory: a description that reached the
// store after the warm load, with the feed already stopped, is found
// in the store once and in memory from then on.
func TestCatalogStoreHitFoldsIntoMemory(t *testing.T) {
	store := NewMemStore()
	defer func() { _ = store.Close() }()
	cat := NewCatalog(New(), store, nil)
	cat.Close()
	writer := NewCatalog(New(), store, nil)
	defer writer.Close()
	fetched := describeFor(t, catFetched{})
	if err := writer.LearnFetched(fetched); err != nil {
		t.Fatal(err)
	}
	if d, fromStore := cat.Lookup(fetched.Ref()); d == nil || !fromStore {
		t.Fatalf("first lookup = %v, fromStore %v; want a store hit", d, fromStore)
	}
	if d, fromStore := cat.Lookup(typedesc.TypeRef{Name: fetched.Name}); d == nil || fromStore {
		t.Errorf("second lookup = %v, fromStore %v; want a memory hit", d, fromStore)
	}
}
