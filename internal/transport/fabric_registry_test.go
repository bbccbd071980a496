package transport

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"pti/internal/fixtures"
	"pti/internal/registry"
)

// The registry-store scenarios prove the durable registry in the
// fabric: a warm restart answers every description from disk, a
// flash crowd coalesces onto one wire fetch, and two versions of one
// logical type deliver side by side.

// TestFabricWarmRestartZeroFetch is the tentpole acceptance scenario:
// a subscriber backed by a file store crashes and restarts, and the
// restarted peer serves every description need from the store — zero
// wire fetches, verified by stat counters.
func TestFabricWarmRestartZeroFetch(t *testing.T) {
	seed := scenarioSeed(t, 9001)
	f := NewFabric(seed)
	defer f.Close()
	defer func() {
		if t.Failed() {
			t.Logf("replay with PTI_SEED=%d", seed)
		}
	}()

	regPub := registry.New()
	if _, err := regPub.Register(fixtures.PersonB{},
		registry.WithConstructor("NewPersonB", fixtures.NewPersonB)); err != nil {
		t.Fatal(err)
	}
	pub, err := f.AddPeerWithRegistry("pub", regPub)
	if err != nil {
		t.Fatal(err)
	}

	regSub := registry.New()
	if _, err := regSub.Register(fixtures.PersonA{},
		registry.WithConstructor("NewPersonA", fixtures.NewPersonA)); err != nil {
		t.Fatal(err)
	}
	// WithStoreDir (not WithStore) so Restart's option replay reopens
	// the store from disk — a genuine warm restart, not a shared
	// in-memory handle surviving the crash.
	dir := t.TempDir()
	sub, err := f.AddPeerWithRegistry("sub", regSub, WithStoreDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Connect("pub", "sub", FaultProfile{Latency: 300 * time.Microsecond}); err != nil {
		t.Fatal(err)
	}

	deliveries := make(chan Delivery, 8)
	onReceive := func(d Delivery) { deliveries <- d }
	if err := sub.Peer().OnReceive(fixtures.PersonA{}, onReceive); err != nil {
		t.Fatal(err)
	}

	// Cold pass: the first delivery needs exactly one wire fetch, and
	// the fetched description must be written through to the store.
	if _, err := pub.Peer().Broadcast(fixtures.PersonB{PersonName: "cold", PersonAge: 1}); err != nil {
		t.Fatal(err)
	}
	d := awaitDelivery(t, deliveries)
	if got := d.Bound.(*fixtures.PersonA); got.Name != "cold" || got.Age != 1 {
		t.Fatalf("cold delivery bound to %+v", got)
	}
	cold := sub.Peer().Stats().Snapshot()
	if cold.TypeInfoRequests != 1 {
		t.Fatalf("cold TypeInfoRequests = %d, want 1", cold.TypeInfoRequests)
	}

	// Crash and warm-restart. The restarted peer reopens the same
	// store directory and preloads what the wire taught its ancestor.
	if err := f.Crash("sub"); err != nil {
		t.Fatal(err)
	}
	waitUntil(2*time.Second, func() bool { return pub.Peer().ConnCount() == 0 })
	sub2, err := f.Restart("sub")
	if err != nil {
		t.Fatal(err)
	}
	if err := sub2.Peer().OnReceive(fixtures.PersonA{}, onReceive); err != nil {
		t.Fatal(err)
	}
	warm := sub2.Peer().Stats().Snapshot()
	if warm.DescWarmLoaded == 0 {
		t.Fatalf("restarted peer warm-loaded %d descriptions, want > 0", warm.DescWarmLoaded)
	}

	const after = 5
	for i := 0; i < after; i++ {
		if _, err := pub.Peer().Broadcast(fixtures.PersonB{PersonName: "warm", PersonAge: 10 + i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < after; i++ {
		d := awaitDelivery(t, deliveries)
		if got := d.Bound.(*fixtures.PersonA); got.Name != "warm" {
			t.Fatalf("warm delivery %d bound to %+v", i, got)
		}
	}

	// The acceptance bar: zero description fetches after the restart.
	post := sub2.Peer().Stats().Snapshot()
	if post.TypeInfoRequests != 0 {
		t.Errorf("post-restart TypeInfoRequests = %d, want 0 (all from store)", post.TypeInfoRequests)
	}
}

// TestFabricFlashCrowdSingleFetch drives 50 concurrent deliveries of
// a brand-new type at one subscriber over ten connections: every
// in-flight description need must coalesce onto a single wire fetch.
func TestFabricFlashCrowdSingleFetch(t *testing.T) {
	seed := scenarioSeed(t, 9002)
	f := NewFabric(seed)
	defer f.Close()
	defer func() {
		if t.Failed() {
			t.Logf("replay with PTI_SEED=%d", seed)
		}
	}()

	regSub := registry.New()
	if _, err := regSub.Register(fixtures.PersonA{},
		registry.WithConstructor("NewPersonA", fixtures.NewPersonA)); err != nil {
		t.Fatal(err)
	}
	sub, err := f.AddPeerWithRegistry("sub", regSub)
	if err != nil {
		t.Fatal(err)
	}
	var delivered sync.WaitGroup
	if err := sub.Peer().OnReceive(fixtures.PersonA{}, func(d Delivery) {
		delivered.Done()
	}); err != nil {
		t.Fatal(err)
	}

	const pubs = 10
	const perPub = 5
	nodes := make([]*Node, pubs)
	for i := 0; i < pubs; i++ {
		reg := registry.New()
		if _, err := reg.Register(fixtures.PersonB{},
			registry.WithConstructor("NewPersonB", fixtures.NewPersonB)); err != nil {
			t.Fatal(err)
		}
		name := "pub" + string(rune('0'+i))
		n, err := f.AddPeerWithRegistry(name, reg)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := f.Connect(name, "sub", FaultProfile{Latency: 200 * time.Microsecond}); err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}

	// Fire all 50 broadcasts at once from separate goroutines so the
	// subscriber handles the unknown type on many connections
	// simultaneously — the dogpile the singleflight must absorb.
	delivered.Add(pubs * perPub)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			<-start
			for j := 0; j < perPub; j++ {
				if _, err := n.Peer().Broadcast(fixtures.PersonB{PersonName: "crowd", PersonAge: i*perPub + j}); err != nil {
					t.Error(err)
					return
				}
			}
		}(i, n)
	}
	close(start)
	wg.Wait()

	done := make(chan struct{})
	go func() { delivered.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("flash crowd deliveries incomplete")
	}

	st := sub.Peer().Stats().Snapshot()
	if st.TypeInfoRequests != 1 {
		t.Errorf("TypeInfoRequests = %d, want exactly 1 (coalesced fetch)", st.TypeInfoRequests)
	}
}

// profileOfInterest is the subscriber's independently written view of
// the "Profile" module: structurally distinct from both fixture
// revisions (its own canonical name gives it its own identity), yet
// conformant to each — exactly to V1, by token subset to V2
// (Name ⊑ FullName, GetName ⊑ GetFullName).
type profileOfInterest struct {
	Name string
	Age  int
}

// GetName returns the profile's name.
func (p *profileOfInterest) GetName() string { return p.Name }

// GetAge returns the profile's age.
func (p *profileOfInterest) GetAge() int { return p.Age }

// TestFabricTwoVersionsCoexist runs publishers on two versions of the
// logical "Profile" module against one subscriber: both versions must
// deliver, member-identically, through their own per-version
// conformance mappings.
func TestFabricTwoVersionsCoexist(t *testing.T) {
	seed := scenarioSeed(t, 9003)
	f := NewFabric(seed)
	defer f.Close()
	defer func() {
		if t.Failed() {
			t.Logf("replay with PTI_SEED=%d", seed)
		}
	}()

	regV1 := registry.New()
	e1, err := regV1.Register(fixtures.ProfileV1{},
		registry.WithTypeName("Profile"),
		registry.WithConstructor("NewProfileV1", fixtures.NewProfileV1))
	if err != nil {
		t.Fatal(err)
	}
	regV2 := registry.New()
	e2, err := regV2.Register(fixtures.ProfileV2{},
		registry.WithTypeName("Profile"),
		registry.WithConstructor("NewProfileV2", fixtures.NewProfileV2))
	if err != nil {
		t.Fatal(err)
	}
	// Same chain name, distinct structural identities: the versions
	// must never share a description fetch, a mapping or a compiled
	// program.
	if e1.Description.Identity == e2.Description.Identity {
		t.Fatal("fixture versions collapsed to one identity")
	}

	pubV1, err := f.AddPeerWithRegistry("pubV1", regV1)
	if err != nil {
		t.Fatal(err)
	}
	pubV2, err := f.AddPeerWithRegistry("pubV2", regV2)
	if err != nil {
		t.Fatal(err)
	}
	regSub := registry.New()
	if _, err := regSub.Register(profileOfInterest{}); err != nil {
		t.Fatal(err)
	}
	sub, err := f.AddPeerWithRegistry("sub", regSub)
	if err != nil {
		t.Fatal(err)
	}
	for _, pub := range []string{"pubV1", "pubV2"} {
		if _, _, err := f.Connect(pub, "sub", FaultProfile{Latency: 300 * time.Microsecond}); err != nil {
			t.Fatal(err)
		}
	}

	deliveries := make(chan Delivery, 4)
	if err := sub.Peer().OnReceive(profileOfInterest{}, func(d Delivery) {
		deliveries <- d
	}); err != nil {
		t.Fatal(err)
	}

	if _, err := pubV1.Peer().Broadcast(fixtures.ProfileV1{Name: "ann", Age: 30}); err != nil {
		t.Fatal(err)
	}
	if _, err := pubV2.Peer().Broadcast(fixtures.ProfileV2{FullName: "bob", Age: 41, Email: "bob@example.com"}); err != nil {
		t.Fatal(err)
	}

	got := map[string]*profileOfInterest{}
	byIdentity := map[string]Delivery{}
	for i := 0; i < 2; i++ {
		d := awaitDelivery(t, deliveries)
		if d.TypeName != "Profile" {
			t.Fatalf("delivery %d TypeName = %q, want Profile", i, d.TypeName)
		}
		b, ok := d.Bound.(*profileOfInterest)
		if !ok {
			t.Fatalf("delivery %d bound to %T", i, d.Bound)
		}
		got[b.Name] = b
		if d.Mapping != nil {
			byIdentity[d.Mapping.Candidate.Identity.String()] = d
		}
	}

	// Member-identical: each version's payload landed in the local
	// type with its corresponding members carried over.
	want := map[string]*profileOfInterest{
		"ann": {Name: "ann", Age: 30},
		"bob": {Name: "bob", Age: 41},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("bound deliveries = %v, want %v", got, want)
	}

	// Both identities produced their own mapping — the versions were
	// checked per (version, resolver) pair, not collapsed by name.
	if len(byIdentity) != 2 {
		t.Fatalf("mappings for %d identities, want 2 (one per version)", len(byIdentity))
	}
	for _, id := range []string{e1.Description.Identity.String(), e2.Description.Identity.String()} {
		if _, ok := byIdentity[id]; !ok {
			t.Errorf("no delivery mapped candidate identity %s", id)
		}
	}
}

// profileCard is a subscriber's view of "Profile" registered under a
// logical name ("Profiles") unlike its Go spelling.
type profileCard struct {
	Name string
	Age  int
}

// TestRenamedInterestBindsRenamedMembers delivers a ProfileV2 to an
// interest registered under WithTypeName: the binder must find the
// interest's description by its registered name, not its Go spelling,
// or FullName never lands in Name.
func TestRenamedInterestBindsRenamedMembers(t *testing.T) {
	regPub := registry.New()
	if _, err := regPub.Register(fixtures.ProfileV2{}, registry.WithTypeName("Profile")); err != nil {
		t.Fatal(err)
	}
	regSub := registry.New()
	if _, err := regSub.Register(profileCard{}, registry.WithTypeName("Profiles")); err != nil {
		t.Fatal(err)
	}
	pub := NewPeer(regPub, WithName("pub"))
	sub := NewPeer(regSub, WithName("sub"))
	defer pub.Close()
	defer sub.Close()
	deliveries := make(chan Delivery, 1)
	if err := sub.OnReceive(profileCard{}, func(d Delivery) { deliveries <- d }); err != nil {
		t.Fatal(err)
	}
	c, _ := Connect(pub, sub)
	if err := pub.SendObject(c, fixtures.ProfileV2{FullName: "bob", Age: 41, Email: "bob@example.com"}); err != nil {
		t.Fatal(err)
	}
	d := awaitDelivery(t, deliveries)
	if want := (&profileCard{Name: "bob", Age: 41}); !reflect.DeepEqual(d.Bound, want) {
		t.Errorf("bound = %+v, want %+v", d.Bound, want)
	}
}
