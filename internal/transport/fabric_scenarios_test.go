package transport

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pti/internal/conform"
	"pti/internal/fixtures"
	"pti/internal/lingua"
	"pti/internal/registry"
)

// The scenario suite drives the optimistic protocol across the
// simulation fabric's fault axes — the "as many scenarios as you can
// imagine" item of the ROADMAP. Every scenario prints its fabric seed
// on failure; re-running with that seed replays the identical fault
// schedule (see TestFabricScheduleReplaysByteIdentically).

// scenarioSeed lets a failing run be replayed: PTI_SEED=n go test ...
func scenarioSeed(t *testing.T, def int64) int64 {
	t.Helper()
	if s := os.Getenv("PTI_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad PTI_SEED %q: %v", s, err)
		}
		return n
	}
	return def
}

// mappingFingerprint reduces a conformance result to the part that
// must agree across peers: the verdict and the member
// correspondences. (Expected-side identities may differ between
// definition routes; the correspondences may not.)
type mappingFingerprint struct {
	Conformant bool
	Identity   bool
	Fields     []conform.FieldMapping
	Methods    []conform.MethodMapping
	Ctors      []conform.CtorMapping
}

func fingerprintOf(conformant bool, m *conform.Mapping) mappingFingerprint {
	fp := mappingFingerprint{Conformant: conformant}
	if m != nil {
		fp.Identity = m.Identity
		fp.Fields = m.Fields
		fp.Methods = m.Methods
		fp.Ctors = m.Ctors
	}
	return fp
}

const scenarioPersonIDL = `
struct PersonA {
    field string Name;
    field int Age;
    string GetName();
    void SetName(string name);
    int GetAge();
    void SetAge(int age);
};
`

// TestScenarioPartitionHealConvergence is the acceptance scenario: a
// publisher and two subscribers with divergent registries, one
// subscriber partitioned away mid-stream. After the heal, the late
// subscriber must run its own optimistic re-check and land on the
// same conformance result as the peer that never lost connectivity.
func TestScenarioPartitionHealConvergence(t *testing.T) {
	seed := scenarioSeed(t, 1001)
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
	// The subscribers' registries diverge from the publisher's — and
	// from each other's definition route: both take their interest
	// from the same IDL text, so their conformance results are
	// comparable in full.
	descs, err := lingua.Parse(scenarioPersonIDL)
	if err != nil {
		t.Fatal(err)
	}
	interest := descs[0]

	type subscriber struct {
		node       *Node
		deliveries chan Delivery
	}
	subs := make(map[string]*subscriber)
	for _, name := range []string{"subA", "subB"} {
		n, err := f.AddPeerWithRegistry(name, registry.New())
		if err != nil {
			t.Fatal(err)
		}
		s := &subscriber{node: n, deliveries: make(chan Delivery, 8)}
		if err := n.Peer().OnReceiveDescription(interest.Clone(), func(d Delivery) {
			s.deliveries <- d
		}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := f.Connect("pub", name, FaultProfile{
			Latency: 500 * time.Microsecond, Jitter: 500 * time.Microsecond,
		}); err != nil {
			t.Fatal(err)
		}
		subs[name] = s
	}

	// Partition subB away and publish: only subA hears it.
	f.Partition([]string{"pub", "subA"}, []string{"subB"})
	if sent, err := pub.Peer().Broadcast(fixtures.PersonB{PersonName: "during", PersonAge: 1}); err != nil || sent != 2 {
		t.Fatalf("broadcast during partition: sent=%d err=%v", sent, err)
	}
	d := awaitDelivery(t, subs["subA"].deliveries)
	if d.View == nil || d.Bound != nil {
		t.Fatalf("description-only interest should deliver a view, got %+v", d)
	}
	select {
	case d := <-subs["subB"].deliveries:
		t.Fatalf("partitioned subscriber received %+v", d)
	case <-time.After(50 * time.Millisecond):
	}

	// Heal and publish again: subB now performs its own cold-path
	// re-check and converges.
	f.Heal()
	if sent, err := pub.Peer().Broadcast(fixtures.PersonB{PersonName: "after", PersonAge: 2}); err != nil || sent != 2 {
		t.Fatalf("broadcast after heal: sent=%d err=%v", sent, err)
	}
	dA := awaitDelivery(t, subs["subA"].deliveries)
	dB := awaitDelivery(t, subs["subB"].deliveries)
	if got, _ := dB.View.Get("Name"); got != "after" {
		t.Errorf("subB view Name = %v", got)
	}

	// Convergence: the mapping each peer computed independently must
	// agree member-for-member.
	fpA := fingerprintOf(true, dA.Mapping)
	fpB := fingerprintOf(true, dB.Mapping)
	if !reflect.DeepEqual(fpA, fpB) {
		t.Errorf("mappings diverged:\nsubA: %+v\nsubB: %+v", fpA, fpB)
	}
	// And each peer arrived at it through its own protocol exchange —
	// the optimistic re-check, not gossip.
	for name, s := range subs {
		st := s.node.Peer().Stats().Snapshot()
		if st.TypeInfoRequests != 1 {
			t.Errorf("%s TypeInfoRequests = %d, want 1 (own cold fetch)", name, st.TypeInfoRequests)
		}
	}
	// The checkers agree too when asked point-blank for the cached
	// result (the conform.Result convergence the issue names).
	var results []mappingFingerprint
	for _, s := range subs {
		cand, err := s.node.Peer().RemoteDescriptions().Resolve(dA.Mapping.Candidate)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.node.Peer().Checker().Check(cand, interest)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, fingerprintOf(r.Conformant, r.Mapping))
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("checker results diverged: %+v vs %+v", results[0], results[1])
	}
}

// TestScenarioCrashRestartCacheIntegrity crashes a warmed-up receiver
// mid-stream and verifies the restarted peer rebuilds its conformance
// state from the protocol — same mapping, fresh fetch, no stale
// cache entries surviving the crash.
func TestScenarioCrashRestartCacheIntegrity(t *testing.T) {
	seed := scenarioSeed(t, 2002)
	f := NewFabric(seed)
	defer f.Close()
	defer func() {
		if t.Failed() {
			t.Logf("replay with PTI_SEED=%d", seed)
		}
	}()

	regA := registry.New()
	if _, err := regA.Register(fixtures.PersonB{},
		registry.WithConstructor("NewPersonB", fixtures.NewPersonB)); err != nil {
		t.Fatal(err)
	}
	regB := registry.New()
	if _, err := regB.Register(fixtures.PersonA{},
		registry.WithConstructor("NewPersonA", fixtures.NewPersonA)); err != nil {
		t.Fatal(err)
	}
	na, err := f.AddPeerWithRegistry("a", regA)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := f.AddPeerWithRegistry("b", regB)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Connect("a", "b", FaultProfile{Latency: 300 * time.Microsecond}); err != nil {
		t.Fatal(err)
	}

	const warm = 5
	var mu sync.Mutex
	var mappings []mappingFingerprint
	var ages []int
	collect := func(d Delivery) {
		mu.Lock()
		mappings = append(mappings, fingerprintOf(true, d.Mapping))
		ages = append(ages, d.Bound.(*fixtures.PersonA).Age)
		mu.Unlock()
	}
	if err := nb.Peer().OnReceive(fixtures.PersonA{}, collect); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < warm; i++ {
		if _, err := na.Peer().Broadcast(fixtures.PersonB{PersonName: "w", PersonAge: i}); err != nil {
			t.Fatal(err)
		}
	}
	if !waitUntil(5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(ages) == warm
	}) {
		t.Fatalf("warm-up deliveries = %d, want %d", len(ages), warm)
	}
	preCrash := nb.Peer().Stats().Snapshot()
	if preCrash.TypeInfoRequests != 1 {
		t.Fatalf("warm-up TypeInfoRequests = %d, want 1 (cache amortizes)", preCrash.TypeInfoRequests)
	}
	mu.Lock()
	preMapping := mappings[0]
	mappings, ages = nil, nil
	mu.Unlock()

	// Crash mid-stream: broadcasts issued while down reach nobody.
	if err := f.Crash("b"); err != nil {
		t.Fatal(err)
	}
	waitUntil(2*time.Second, func() bool { return na.Peer().ConnCount() == 0 })
	if sent, _ := na.Peer().Broadcast(fixtures.PersonB{PersonName: "lost", PersonAge: 99}); sent != 0 {
		t.Errorf("broadcast into crashed fabric reached %d conns", sent)
	}

	nb2, err := f.Restart("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := nb2.Peer().OnReceive(fixtures.PersonA{}, collect); err != nil {
		t.Fatal(err)
	}
	const after = 5
	for i := 0; i < after; i++ {
		if _, err := na.Peer().Broadcast(fixtures.PersonB{PersonName: "r", PersonAge: 100 + i}); err != nil {
			t.Fatal(err)
		}
	}
	if !waitUntil(5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(ages) == after
	}) {
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("post-restart deliveries = %d, want %d", len(ages), after)
	}

	mu.Lock()
	defer mu.Unlock()
	// The crashed peer's caches died with it: the restarted peer
	// re-fetched and re-checked from scratch...
	postStats := nb2.Peer().Stats().Snapshot()
	if postStats.TypeInfoRequests != 1 {
		t.Errorf("post-restart TypeInfoRequests = %d, want 1", postStats.TypeInfoRequests)
	}
	// ...and landed on exactly the mapping the pre-crash peer used —
	// no corruption, no divergence, every delivery consistent.
	for i, m := range mappings {
		if !reflect.DeepEqual(m, preMapping) {
			t.Errorf("delivery %d mapping diverged after restart:\npre:  %+v\npost: %+v", i, preMapping, m)
		}
	}
	sort.Ints(ages)
	for i, age := range ages {
		if age != 100+i {
			t.Errorf("post-restart ages = %v, want 100..104 exactly once each", ages)
			break
		}
	}
}

// TestScenarioEagerOptimisticEquivalenceUnderReordering runs the same
// publication sequence over two identically seeded fabrics — one
// optimistic, one eager — under heavy reordering, and demands the two
// modes deliver exactly the same objects. The protocol modes differ
// in wire cost, never in semantics (the paper's Section 7 framing).
func TestScenarioEagerOptimisticEquivalenceUnderReordering(t *testing.T) {
	seed := scenarioSeed(t, 3003)
	defer func() {
		if t.Failed() {
			t.Logf("replay with PTI_SEED=%d", seed)
		}
	}()
	run := func(eager bool) (ages []int, typeInfo uint64) {
		var opts []PeerOption
		if eager {
			opts = append(opts, Eager())
		}
		f, na, nb := fabricPair(t, seed, FaultProfile{
			Latency:     300 * time.Microsecond,
			Jitter:      300 * time.Microsecond,
			ReorderRate: 0.5,
		}, opts, nil)
		defer f.Close()
		var mu sync.Mutex
		if err := nb.Peer().OnReceive(fixtures.PersonA{}, func(d Delivery) {
			mu.Lock()
			ages = append(ages, d.Bound.(*fixtures.PersonA).Age)
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
		ca, _ := na.ConnTo("b")
		const n = 25
		for i := 0; i < n; i++ {
			if err := na.Peer().SendObject(ca, fixtures.PersonB{PersonName: "e", PersonAge: i}); err != nil {
				t.Fatal(err)
			}
		}
		if !waitUntil(10*time.Second, func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(ages) == n
		}) {
			mu.Lock()
			defer mu.Unlock()
			t.Fatalf("eager=%t delivered %d/%d under reordering", eager, len(ages), n)
		}
		mu.Lock()
		defer mu.Unlock()
		sort.Ints(ages)
		return ages, nb.Peer().Stats().Snapshot().TypeInfoRequests
	}

	optAges, optTI := run(false)
	eagAges, eagTI := run(true)
	if !reflect.DeepEqual(optAges, eagAges) {
		t.Errorf("modes diverged under reordering:\noptimistic: %v\neager:      %v", optAges, eagAges)
	}
	if optTI != 1 {
		t.Errorf("optimistic TypeInfoRequests = %d, want 1", optTI)
	}
	if eagTI != 0 {
		t.Errorf("eager TypeInfoRequests = %d, want 0 (description ships inline)", eagTI)
	}
}

// TestScenarioAtMostOnceAccounting: when the fabric guarantees
// at-most-once (no drop, no dup, no reorder — just latency), the
// peer's Stats must account for exactly-once delivery: nothing lost,
// nothing duplicated, frame counters balanced.
func TestScenarioAtMostOnceAccounting(t *testing.T) {
	seed := scenarioSeed(t, 4004)
	prof := FaultProfile{Latency: 200 * time.Microsecond, Jitter: 300 * time.Microsecond}
	if !prof.perfect() {
		t.Fatal("profile must be fault-free for this scenario")
	}
	f, na, nb := fabricPair(t, seed, prof, nil, nil)
	defer func() {
		if t.Failed() {
			t.Logf("replay with PTI_SEED=%d", seed)
		}
	}()

	var mu sync.Mutex
	seen := make(map[int]int)
	if err := nb.Peer().OnReceive(fixtures.PersonA{}, func(d Delivery) {
		mu.Lock()
		seen[d.Bound.(*fixtures.PersonA).Age]++
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	ca, _ := na.ConnTo("b")
	const n = 50
	for i := 0; i < n; i++ {
		if err := na.Peer().SendObject(ca, fixtures.PersonB{PersonName: "x", PersonAge: i}); err != nil {
			t.Fatal(err)
		}
	}
	if !waitUntil(10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seen) == n
	}) {
		t.Fatalf("unique deliveries = %d, want %d", len(seen), n)
	}
	mu.Lock()
	for age, count := range seen {
		if count != 1 {
			t.Errorf("object %d delivered %d times over an at-most-once fabric", age, count)
		}
	}
	mu.Unlock()

	as, bs := na.Peer().Stats().Snapshot(), nb.Peer().Stats().Snapshot()
	if as.ObjectsSent != n {
		t.Errorf("sender ObjectsSent = %d, want %d", as.ObjectsSent, n)
	}
	if bs.ObjectsReceived != n || bs.ObjectsDelivered != n || bs.ObjectsDropped != 0 {
		t.Errorf("receiver accounting: received=%d delivered=%d dropped=%d, want %d/%d/0",
			bs.ObjectsReceived, bs.ObjectsDelivered, bs.ObjectsDropped, n, n)
	}
	// Frame-level accounting: everything offered was delivered.
	if !waitUntil(2*time.Second, func() bool {
		s := f.Stats()
		return s.FramesSent == s.FramesDelivered
	}) {
		t.Errorf("frame accounting unbalanced: %+v", f.Stats())
	}
	s := f.Stats()
	if s.FramesDropped != 0 || s.FramesDuplicated != 0 || s.FramesReordered != 0 || s.PartitionDrops != 0 {
		t.Errorf("faults recorded on a fault-free fabric: %+v", s)
	}
}

// TestScenarioLossyLinkEventualDelivery: on a badly lossy link the
// application-level retry (re-publication) eventually lands an
// object, and repeated receptions of the already-checked type cost
// re-checks against the cache, not new protocol round trips beyond
// the ones the losses forced.
func TestScenarioLossyLinkEventualDelivery(t *testing.T) {
	seed := scenarioSeed(t, 5005)
	f, na, nb := fabricPair(t, seed, FaultProfile{
		Latency:  200 * time.Microsecond,
		DropRate: 0.4,
	}, nil, []PeerOption{WithRequestTimeout(150 * time.Millisecond)})
	defer func() {
		if t.Failed() {
			t.Logf("replay with PTI_SEED=%d", seed)
		}
	}()
	_ = f

	var delivered atomic.Uint64
	if err := nb.Peer().OnReceive(fixtures.PersonA{}, func(Delivery) { delivered.Add(1) }); err != nil {
		t.Fatal(err)
	}
	ca, _ := na.ConnTo("b")
	// Re-publish until at least one copy survives the loss schedule
	// end-to-end (object frame + description exchange + code
	// exchange all have to get lucky at 60% per frame).
	deadline := time.Now().Add(20 * time.Second)
	sends := 0
	for delivered.Load() == 0 && time.Now().Before(deadline) {
		if err := na.Peer().SendObject(ca, fixtures.PersonB{PersonName: "retry", PersonAge: sends}); err != nil {
			t.Fatal(err)
		}
		sends++
		time.Sleep(20 * time.Millisecond)
	}
	if delivered.Load() == 0 {
		t.Fatalf("no delivery after %d sends over lossy link", sends)
	}
	bs := nb.Peer().Stats().Snapshot()
	t.Logf("lossy link: %d sends, %d received, %d delivered, %d dropped, %d type-info fetches",
		sends, bs.ObjectsReceived, bs.ObjectsDelivered, bs.ObjectsDropped, bs.TypeInfoRequests)
	// Every reception was either delivered or accounted as dropped —
	// loss never wedges an object in between.
	if !receptionsSettled(bs) {
		t.Errorf("reception accounting leaked: %+v", bs)
	}
}

// TestScenarioRestartEnvelopeCacheInvalidation exercises the cached
// envelope parts (compiled template, assembly snapshot, description
// XML) across the crash/re-register/restart cycle: the pre-crash
// sender serves envelopes advertising its registered download paths,
// re-registration after the crash replaces the registry entry — and
// with it every per-entry cache — and the restarted sender's
// envelopes must advertise the new paths with no stale bytes
// surviving, while deliveries keep flowing.
func TestScenarioRestartEnvelopeCacheInvalidation(t *testing.T) {
	seed := scenarioSeed(t, 6006)
	f := NewFabric(seed)
	defer f.Close()
	defer func() {
		if t.Failed() {
			t.Logf("replay with PTI_SEED=%d", seed)
		}
	}()

	const (
		oldPath = "http://old.example/types"
		newPath = "http://new.example/types"
	)
	regA := registry.New()
	if _, err := regA.Register(fixtures.PersonB{},
		registry.WithDownloadPaths(oldPath)); err != nil {
		t.Fatal(err)
	}
	regB := registry.New()
	if _, err := regB.Register(fixtures.PersonA{}); err != nil {
		t.Fatal(err)
	}
	na, err := f.AddPeerWithRegistry("a", regA)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := f.AddPeerWithRegistry("b", regB)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Connect("a", "b", FaultProfile{Latency: 200 * time.Microsecond}); err != nil {
		t.Fatal(err)
	}
	deliveries := make(chan Delivery, 8)
	collect := func(d Delivery) { deliveries <- d }
	if err := nb.Peer().OnReceive(fixtures.PersonA{}, collect); err != nil {
		t.Fatal(err)
	}

	sendCaptured := func(n *Node, name string, age int) []byte {
		t.Helper()
		conn, ok := n.ConnTo("b")
		if !ok {
			t.Fatal("no conn to b")
		}
		cap := &captureLink{Link: conn}
		if err := n.Peer().SendObject(cap, fixtures.PersonB{PersonName: name, PersonAge: age}); err != nil {
			t.Fatal(err)
		}
		sent := cap.sent()
		if len(sent) != 1 {
			t.Fatalf("captured %d sends, want 1", len(sent))
		}
		return sent[0]
	}

	// Two warm sends: the second rides the cached template and must
	// still advertise the registered paths.
	for i := 0; i < 2; i++ {
		body := sendCaptured(na, "pre", i)
		if !bytes.Contains(body, []byte(oldPath)) {
			t.Fatalf("pre-crash envelope %d missing download path %q:\n%q", i, oldPath, body)
		}
		d := awaitDelivery(t, deliveries)
		if d.Bound.(*fixtures.PersonA).Name != "pre" {
			t.Fatalf("pre-crash delivery = %+v", d.Bound)
		}
	}

	if err := f.Crash("a"); err != nil {
		t.Fatal(err)
	}
	waitUntil(2*time.Second, func() bool { return nb.Peer().ConnCount() == 0 })

	// The "upgraded" process re-registers the type with new download
	// paths: same structural identity, fresh registry entry — which is
	// precisely what invalidates the envelope caches.
	if _, err := regA.Register(fixtures.PersonB{},
		registry.WithDownloadPaths(newPath)); err != nil {
		t.Fatal(err)
	}
	na2, err := f.Restart("a")
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2; i++ {
		body := sendCaptured(na2, "post", 100+i)
		if bytes.Contains(body, []byte(oldPath)) {
			t.Fatalf("post-restart envelope %d still advertises stale path %q:\n%q", i, oldPath, body)
		}
		if !bytes.Contains(body, []byte(newPath)) {
			t.Fatalf("post-restart envelope %d missing new path %q:\n%q", i, newPath, body)
		}
		d := awaitDelivery(t, deliveries)
		if got := d.Bound.(*fixtures.PersonA).Name; got != "post" {
			t.Fatalf("post-restart delivery = %q", got)
		}
	}
}

// TestFabricSoak is the long-running churn scenario: a five-node
// fabric under a moderately hostile profile with concurrent reliable
// publishers, while one subscriber crash/restarts repeatedly. The
// assertions are the protocol's global invariants — accounting
// balance on every peer, convergent mappings, no deadlock, no race
// (run under -race via `make soak`). PTI_SOAK=1 extends the run.
//
// The soak runs on the virtual clock by default, so injected latency
// and retransmit backoff cost real milliseconds instead of wall-clock
// sleeping; set PTI_REALCLOCK=1 to soak against real time. Fault
// decisions are a pure function of (seed, direction, frame index)
// either way, so PTI_SEED replay reproduces the identical schedule.
func TestFabricSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak scenario skipped in -short mode")
	}
	seed := scenarioSeed(t, time.Now().UnixNano())

	// The nightly CI matrix sweeps PTI_PROFILE (lan/wan/chaos/slow)
	// × PTI_RELIABLE (1/0); the default remains the WAN profile with
	// reliable publishers — the regime where a wall-clock soak spends
	// nearly all its time sleeping through injected delay and the
	// virtual clock pays off.
	profName := os.Getenv("PTI_PROFILE")
	if profName == "" {
		profName = "wan"
	}
	prof, ok := NamedProfile(profName)
	if !ok {
		t.Fatalf("unknown PTI_PROFILE %q (want perfect/lan/wan/chaos/slow)", profName)
	}
	reliableOn := os.Getenv("PTI_RELIABLE") != "0"
	t.Logf("fabric soak seed=%d profile=%s reliable=%v (replay with PTI_SEED=%d)",
		seed, profName, reliableOn, seed)

	rounds := 4
	perRound := 30
	if os.Getenv("PTI_SOAK") != "" {
		rounds, perRound = 20, 100
	}

	var fabOpts []FabricOption
	if os.Getenv("PTI_REALCLOCK") == "" {
		fabOpts = append(fabOpts, WithVirtualClock())
	}
	f := NewFabric(seed, fabOpts...)
	defer f.Close()
	newReg := func(v interface{}, name string, ctor interface{}) *registry.Registry {
		reg := registry.New()
		if _, err := reg.Register(v, registry.WithConstructor(name, ctor)); err != nil {
			t.Fatal(err)
		}
		return reg
	}
	pubs := []string{"pub1", "pub2"}
	subsNames := []string{"sub1", "sub2", "sub3"}
	for _, p := range pubs {
		// Publishers send reliably (unless the matrix turned it off):
		// the mixed regime — reliable sender, plain receivers — the
		// layer is designed for. The pre-sample RTO sits above the
		// worst profile's round trip so early retransmits mean loss,
		// not impatience, and the estimator takes over from there.
		pubOpts := []PeerOption{WithRequestTimeout(time.Second)}
		if reliableOn {
			pubOpts = append(pubOpts, WithReliableLinks(
				WithRetransmitTimeout(400*time.Millisecond)))
		}
		if _, err := f.AddPeerWithRegistry(p, newReg(fixtures.PersonB{}, "NewPersonB", fixtures.NewPersonB),
			pubOpts...); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	maps := make(map[string][]mappingFingerprint)
	subscribe := func(name string) {
		n := f.Node(name)
		if err := n.Peer().OnReceive(fixtures.PersonA{}, func(d Delivery) {
			mu.Lock()
			maps[name] = append(maps[name], fingerprintOf(true, d.Mapping))
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range subsNames {
		if _, err := f.AddPeerWithRegistry(s, newReg(fixtures.PersonA{}, "NewPersonA", fixtures.NewPersonA),
			WithRequestTimeout(time.Second)); err != nil {
			t.Fatal(err)
		}
		for _, p := range pubs {
			if _, _, err := f.Connect(p, s, prof); err != nil {
				t.Fatal(err)
			}
		}
		subscribe(s)
	}

	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for _, p := range pubs {
			wg.Add(1)
			go func(p string, round int) {
				defer wg.Done()
				peer := f.Node(p).Peer()
				for i := 0; i < perRound; i++ {
					_, _ = peer.Broadcast(fixtures.PersonB{PersonName: p, PersonAge: round*perRound + i})
				}
			}(p, round)
		}
		// Mid-round chaos on sub3: crash, let traffic flow past the
		// dead node, restart, resubscribe.
		if round%2 == 1 {
			if err := f.Crash("sub3"); err != nil {
				t.Fatal(err)
			}
			time.Sleep(10 * time.Millisecond)
			if _, err := f.Restart("sub3"); err != nil {
				t.Fatal(err)
			}
			subscribe("sub3")
		}
		wg.Wait()
	}

	// Invariant 1: per-peer accounting must converge — every reception
	// resolves to delivered or dropped once the in-flight description
	// and code exchanges (bounded by the request timeout) drain. A
	// reception that never resolves is a wedged handler, which is
	// exactly what this soak exists to catch.
	balanced := func() bool {
		for _, s := range subsNames {
			p := f.Node(s).Peer()
			if p == nil {
				continue
			}
			st := p.Stats().Snapshot()
			if !receptionsSettled(st) {
				return false
			}
		}
		return true
	}
	if !waitUntil(20*time.Second, balanced) {
		for _, s := range subsNames {
			if p := f.Node(s).Peer(); p != nil {
				st := p.Stats().Snapshot()
				t.Errorf("%s accounting never converged: received=%d delivered=%d dropped=%d (seed=%d)",
					s, st.ObjectsReceived, st.ObjectsDelivered, st.ObjectsDropped, seed)
			}
		}
	}
	// Invariant 2: every delivery on every peer across every crash
	// epoch used the same conformance mapping.
	mu.Lock()
	defer mu.Unlock()
	var ref *mappingFingerprint
	total := 0
	for name, ms := range maps {
		total += len(ms)
		for _, m := range ms {
			if ref == nil {
				r := m
				ref = &r
				continue
			}
			if !reflect.DeepEqual(m, *ref) {
				t.Fatalf("%s observed divergent mapping (seed=%d):\nref: %+v\ngot: %+v", name, seed, *ref, m)
			}
		}
	}
	if total == 0 {
		t.Errorf("soak delivered nothing (seed=%d)", seed)
	}
	t.Logf("soak: %d deliveries across %d subscribers, fabric %+v (seed=%d)",
		total, len(subsNames), f.Stats(), seed)
}

// --- reliable delivery layer scenarios (PR 4) -------------------------

// chaosProfile drops, duplicates and reorders aggressively — the
// regime where the bare optimistic protocol tops out well below 100%
// match rate.
var chaosProfile = FaultProfile{
	Latency:     500 * time.Microsecond,
	Jitter:      500 * time.Microsecond,
	DropRate:    0.25,
	DupRate:     0.15,
	ReorderRate: 0.25,
}

// TestScenarioReliableChaosExactlyOnceInOrder is the PR's acceptance
// scenario: over a drop+dup+reorder profile, WithReliableLinks
// converges to a 100% match rate — every published object delivered
// exactly once, in publication order — under the virtual clock, so
// the whole retransmit/backoff dance costs real milliseconds.
func TestScenarioReliableChaosExactlyOnceInOrder(t *testing.T) {
	seed := scenarioSeed(t, 7007)
	defer func() {
		if t.Failed() {
			t.Logf("replay with PTI_SEED=%d", seed)
		}
	}()
	rel := []PeerOption{
		WithReliableLinks(WithRetransmitTimeout(5*time.Millisecond), WithWindow(16)),
		WithRequestTimeout(2 * time.Second),
	}
	f, na, nb := fabricPairOpts(t, seed, chaosProfile,
		[]FabricOption{WithVirtualClock()}, rel, rel)

	var mu sync.Mutex
	var ages []int
	if err := nb.Peer().OnReceive(fixtures.PersonA{}, func(d Delivery) {
		mu.Lock()
		ages = append(ages, d.Bound.(*fixtures.PersonA).Age)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	ca, _ := na.ConnTo("b")
	const n = 80
	for i := 0; i < n; i++ {
		if err := na.Peer().SendObject(ca, fixtures.PersonB{PersonName: "rel", PersonAge: i}); err != nil {
			t.Fatal(err)
		}
	}
	if !waitUntil(30*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(ages) == n
	}) {
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("delivered %d/%d over chaos profile with reliability on (seed=%d)", len(ages), n, seed)
	}
	mu.Lock()
	for i, age := range ages {
		if age != i {
			t.Fatalf("delivery %d = age %d: order or dedup violated (ages=%v, seed=%d)", i, age, ages, seed)
		}
	}
	mu.Unlock()

	// 100% match rate: exactly-once, nothing extra.
	bs := nb.Peer().Stats().Snapshot()
	if bs.ObjectsDelivered != n || bs.ObjectsDropped != 0 {
		t.Errorf("receiver accounting: delivered=%d dropped=%d, want %d/0", bs.ObjectsDelivered, bs.ObjectsDropped, n)
	}
	// The chaos actually happened and the layer actually worked.
	fs := f.Stats()
	if fs.FramesDropped == 0 || fs.FramesDuplicated == 0 {
		t.Errorf("profile injected no faults: %+v", fs)
	}
	as := na.Peer().Stats().Snapshot()
	if as.RelRetransmits == 0 {
		t.Error("no retransmissions over a lossy link")
	}
	if bs.RelDeduped == 0 {
		t.Error("no dedup over a duplicating link with retransmits")
	}
}

// TestScenarioReliableWindowBoundsRetransmitStorm pins the window
// invariant under a blackhole: with the data direction cut, the send
// queue holds every frame beyond the window back, no more than Window
// object frames are ever in flight, and the heal delivers everything
// exactly once.
func TestScenarioReliableWindowBoundsRetransmitStorm(t *testing.T) {
	seed := scenarioSeed(t, 8008)
	const window = 4
	f, na, nb := fabricPair(t, seed, FaultProfile{Latency: 200 * time.Microsecond},
		[]PeerOption{WithReliableLinks(
			WithRetransmitTimeout(5*time.Millisecond), WithMaxBackoff(20*time.Millisecond), WithWindow(window))},
		[]PeerOption{WithReliableLinks(WithRetransmitTimeout(5 * time.Millisecond))})
	defer func() {
		if t.Failed() {
			t.Logf("replay with PTI_SEED=%d", seed)
		}
	}()

	var mu sync.Mutex
	seen := make(map[int]int)
	if err := nb.Peer().OnReceive(fixtures.PersonA{}, func(d Delivery) {
		mu.Lock()
		seen[d.Bound.(*fixtures.PersonA).Age]++
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.PartitionOneWay("a", "b", true); err != nil {
		t.Fatal(err)
	}
	ca, _ := na.ConnTo("b")
	rel := ca.rel.Load()
	if rel == nil {
		t.Fatal("reliable peer's conn has no attached reliable link")
	}

	const n = 20
	for i := 0; i < n; i++ {
		if err := na.Peer().SendObject(ca, fixtures.PersonB{PersonName: "storm", PersonAge: i}); err != nil {
			t.Fatal(err)
		}
	}

	// Let the storm rage: retransmits fire into the cut direction for
	// a while. The window bound must hold throughout.
	deadline := time.Now().Add(150 * time.Millisecond)
	for time.Now().Before(deadline) {
		if got := rel.Snapshot().InFlightData; got > window {
			t.Fatalf("in-flight object frames = %d, exceeds window %d", got, window)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := na.Peer().Stats().Snapshot().RelDataSent; got > window {
		t.Errorf("first-transmissions during blackout = %d, want <= window %d (window backpressure)", got, window)
	}
	if got := rel.Snapshot().Retransmits; got == 0 {
		t.Error("no retransmissions into the blackhole")
	}
	if got := rel.Snapshot().QueueDepth; got != n-window {
		t.Errorf("queued during blackout = %d, want %d (held back by the window)", got, n-window)
	}

	if err := f.PartitionOneWay("a", "b", false); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(20*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seen) == n
	}) {
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("healed delivery = %d/%d unique (seed=%d)", len(seen), n, seed)
	}
	mu.Lock()
	defer mu.Unlock()
	for age, count := range seen {
		if count != 1 {
			t.Errorf("object %d delivered %d times despite retransmit storm", age, count)
		}
	}
}

// TestScenarioReliableCrashRestartNoGhosts pins the epoch mechanism:
// a crash/restart cycle resets sequence state, the resumed stream
// delivers exactly once, and a ghost frame from the pre-restart epoch
// is suppressed, never redelivered.
func TestScenarioReliableCrashRestartNoGhosts(t *testing.T) {
	seed := scenarioSeed(t, 9009)
	rel := []PeerOption{WithReliableLinks(WithRetransmitTimeout(5 * time.Millisecond))}
	f, na, nb := fabricPair(t, seed, FaultProfile{Latency: 300 * time.Microsecond}, rel, rel)
	defer func() {
		if t.Failed() {
			t.Logf("replay with PTI_SEED=%d", seed)
		}
	}()

	var mu sync.Mutex
	seen := make(map[int]int)
	subscribe := func(n *Node) {
		if err := n.Peer().OnReceive(fixtures.PersonA{}, func(d Delivery) {
			mu.Lock()
			seen[d.Bound.(*fixtures.PersonA).Age]++
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	subscribe(nb)
	ca, _ := na.ConnTo("b")
	oldEpoch := ca.rel.Load().Snapshot().Epoch
	for i := 0; i < 5; i++ {
		if err := na.Peer().SendObject(ca, fixtures.PersonB{PersonName: "pre", PersonAge: i}); err != nil {
			t.Fatal(err)
		}
	}
	if !waitUntil(10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seen) == 5
	}) {
		t.Fatalf("pre-crash deliveries incomplete (seed=%d)", seed)
	}

	if err := f.Crash("b"); err != nil {
		t.Fatal(err)
	}
	waitUntil(2*time.Second, func() bool { return na.Peer().ConnCount() == 0 })
	nb2, err := f.Restart("b")
	if err != nil {
		t.Fatal(err)
	}
	subscribe(nb2)

	ca2, ok := na.ConnTo("b")
	if !ok {
		t.Fatal("restart did not relink")
	}
	if ca2 == ca {
		t.Fatal("restart reused the dead conn")
	}
	newEpoch := ca2.rel.Load().Snapshot().Epoch
	if newEpoch <= oldEpoch {
		t.Fatalf("restarted sender epoch %d not newer than %d", newEpoch, oldEpoch)
	}
	for i := 0; i < 5; i++ {
		if err := na.Peer().SendObject(ca2, fixtures.PersonB{PersonName: "post", PersonAge: 100 + i}); err != nil {
			t.Fatal(err)
		}
	}
	if !waitUntil(10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seen) == 10
	}) {
		t.Fatalf("post-restart deliveries incomplete (seed=%d)", seed)
	}

	// Inject a ghost: a data frame from the dead epoch arriving on the
	// new conn must be suppressed without a delivery.
	preDeduped := nb2.Peer().Stats().Snapshot().RelDeduped
	ghost := encodeRelData(oldEpoch, 3, &Message{Type: MsgObject})
	if err := ca2.send(&Message{Type: MsgReliableData, Body: ghost}); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(5*time.Second, func() bool {
		return nb2.Peer().Stats().Snapshot().RelDeduped > preDeduped
	}) {
		t.Error("ghost frame was not counted as suppressed")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 10 {
		t.Errorf("ghost changed the delivery set: %v", seen)
	}
	for age, count := range seen {
		if count != 1 {
			t.Errorf("object %d delivered %d times across the restart", age, count)
		}
	}
}

// TestFabricVirtualClockScheduleReplaysByteIdentically extends the
// determinism acceptance test to the virtual clock: fault decisions
// remain a pure function of (seed, direction, frame index), so two
// virtual-clock runs with one seed dump byte-identical schedules.
func TestFabricVirtualClockScheduleReplaysByteIdentically(t *testing.T) {
	run := func(seed int64) []byte {
		f, na, nb := fabricPairOpts(t, seed, FaultProfile{
			Latency:     200 * time.Microsecond,
			Jitter:      200 * time.Microsecond,
			DropRate:    0.3,
			DupRate:     0.1,
			ReorderRate: 0.2,
		}, []FabricOption{WithVirtualClock()}, []PeerOption{Eager()}, nil)
		var delivered atomic.Uint64
		if err := nb.Peer().OnReceive(fixtures.PersonA{}, func(Delivery) { delivered.Add(1) }); err != nil {
			t.Fatal(err)
		}
		ca, _ := na.ConnTo("b")
		for i := 0; i < 40; i++ {
			if err := na.Peer().SendObject(ca, fixtures.PersonB{PersonName: "x", PersonAge: i}); err != nil {
				t.Fatal(err)
			}
		}
		waitUntil(5*time.Second, func() bool {
			s := f.Stats()
			return s.FramesDelivered == s.FramesSent-s.FramesDropped-s.PartitionDrops+s.FramesDuplicated
		})
		return f.ScheduleDump()
	}
	d1 := run(42)
	d2 := run(42)
	if !bytes.Equal(d1, d2) {
		t.Fatalf("same seed produced different schedules under the virtual clock:\n--- run 1 ---\n%s--- run 2 ---\n%s", d1, d2)
	}
	if len(d1) == 0 {
		t.Fatal("empty schedule recorded")
	}
	if bytes.Equal(d1, run(43)) {
		t.Error("different seeds produced identical schedules")
	}
}

// TestScenarioVirtualClockCompressesLatency: a cold optimistic
// delivery over a 500ms-latency link needs >= 2.5s of virtual time
// (object, description round trip, code round trip, delivery) but
// must complete in a small fraction of that in real time.
func TestScenarioVirtualClockCompressesLatency(t *testing.T) {
	seed := scenarioSeed(t, 1111)
	f, na, nb := fabricPairOpts(t, seed, FaultProfile{Latency: 500 * time.Millisecond},
		[]FabricOption{WithVirtualClock()}, nil, nil)
	deliveries := make(chan Delivery, 8)
	if err := nb.Peer().OnReceive(fixtures.PersonA{}, func(d Delivery) { deliveries <- d }); err != nil {
		t.Fatal(err)
	}
	ca, _ := na.ConnTo("b")
	virtualStart := f.Clock().Now()
	realStart := time.Now()
	for i := 0; i < 5; i++ {
		if err := na.Peer().SendObject(ca, fixtures.PersonB{PersonName: "slow", PersonAge: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		awaitDelivery(t, deliveries)
	}
	realElapsed := time.Since(realStart)
	virtualElapsed := f.Clock().Now().Sub(virtualStart)
	t.Logf("virtual %s compressed into real %s", virtualElapsed, realElapsed)
	if virtualElapsed < 2*time.Second {
		t.Errorf("virtual elapsed = %s, expected >= 2s of simulated latency", virtualElapsed)
	}
	if realElapsed >= virtualElapsed {
		t.Errorf("virtual clock did not compress: real %s >= virtual %s", realElapsed, virtualElapsed)
	}
	if realElapsed > 3*time.Second {
		t.Errorf("real elapsed = %s, want well under the simulated latency budget", realElapsed)
	}
}

// --- send queue scenarios ---------------------------------------------

// TestScenarioBlackholedPeerDoesNotStallBroadcast pins the send
// queue's isolation property: a peer that is partitioned-but-alive
// (frames vanish both ways, connection stays up) fills only its own
// queue. The broadcast loop never blocks, the
// healthy subscribers converge to a 100% match rate, the blackholed
// link eventually fails with a typed ErrPeerUnreachable that
// Broadcast aggregates instead of hiding, and the sender goroutines
// are all released on fabric teardown.
func TestScenarioBlackholedPeerDoesNotStallBroadcast(t *testing.T) {
	seed := scenarioSeed(t, 5005)
	defer func() {
		if t.Failed() {
			t.Logf("replay with PTI_SEED=%d", seed)
		}
	}()
	goroutineBase := reliableLoopGoroutines()

	f := NewFabric(seed, WithVirtualClock())
	regPub := registry.New()
	if _, err := regPub.Register(fixtures.PersonB{},
		registry.WithConstructor("NewPersonB", fixtures.NewPersonB)); err != nil {
		t.Fatal(err)
	}
	pubOpts := []PeerOption{
		WithRequestTimeout(2 * time.Second),
		WithReliableLinks(
			WithSendQueue(128),
			WithWindow(8),
			WithRetransmitTimeout(10*time.Millisecond),
			WithMaxBackoff(80*time.Millisecond),
			WithMaxAttempts(8)),
	}
	pub, err := f.AddPeerWithRegistry("pub", regPub, pubOpts...)
	if err != nil {
		t.Fatal(err)
	}
	lan, _ := NamedProfile("lan")
	type subscriber struct {
		mu   sync.Mutex
		ages []int
	}
	subs := map[string]*subscriber{"sub1": {}, "sub2": {}, "sub3": {}}
	for name, s := range subs {
		reg := registry.New()
		if _, err := reg.Register(fixtures.PersonA{},
			registry.WithConstructor("NewPersonA", fixtures.NewPersonA)); err != nil {
			t.Fatal(err)
		}
		n, err := f.AddPeerWithRegistry(name, reg, WithRequestTimeout(2*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		s := s
		if err := n.Peer().OnReceive(fixtures.PersonA{}, func(d Delivery) {
			s.mu.Lock()
			s.ages = append(s.ages, d.Bound.(*fixtures.PersonA).Age)
			s.mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := f.Connect("pub", name, lan); err != nil {
			t.Fatal(err)
		}
	}

	// Blackhole sub3 in both directions: frames vanish, the
	// connection stays alive — the failure mode TCP cannot express.
	if err := f.PartitionOneWay("pub", "sub3", true); err != nil {
		t.Fatal(err)
	}
	if err := f.PartitionOneWay("sub3", "pub", true); err != nil {
		t.Fatal(err)
	}

	// The broadcast loop must complete promptly in *real* time: every
	// send is an enqueue, so the blackholed window can never hold the
	// loop hostage (a sender waiting on the window would stall at the
	// 9th frame toward sub3 and sit out retransmit backoff).
	const n = 60
	loopStart := time.Now()
	for i := 0; i < n; i++ {
		if sent, err := pub.Peer().Broadcast(fixtures.PersonB{PersonName: "fan", PersonAge: i}); err != nil {
			// The blackholed link may give up mid-run; the healthy
			// conns must still have been reached.
			if !errors.Is(err, ErrPeerUnreachable) || sent < 2 {
				t.Fatalf("broadcast %d: sent=%d err=%v", i, sent, err)
			}
		}
	}
	if loopElapsed := time.Since(loopStart); loopElapsed > 5*time.Second {
		t.Fatalf("broadcast loop took %s of real time: the async pipeline stalled", loopElapsed)
	}

	// Healthy subscribers converge to a 100% match rate, in order.
	for _, name := range []string{"sub1", "sub2"} {
		s := subs[name]
		if !waitUntil(30*time.Second, func() bool {
			s.mu.Lock()
			defer s.mu.Unlock()
			return len(s.ages) == n
		}) {
			s.mu.Lock()
			defer s.mu.Unlock()
			t.Fatalf("%s delivered %d/%d with a blackholed sibling (seed=%d)", name, len(s.ages), n, seed)
		}
		s.mu.Lock()
		for i, age := range s.ages {
			if age != i {
				t.Fatalf("%s delivery %d = age %d: order violated (seed=%d)", name, i, age, seed)
			}
		}
		s.mu.Unlock()
	}
	subs["sub3"].mu.Lock()
	if got := len(subs["sub3"].ages); got != 0 {
		t.Errorf("blackholed subscriber received %d objects", got)
	}
	subs["sub3"].mu.Unlock()

	// The blackholed link gives up with the typed error, surfaced
	// through Broadcast's aggregate rather than first-error-wins.
	var lastErr error
	if !waitUntil(20*time.Second, func() bool {
		sent, err := pub.Peer().Broadcast(fixtures.PersonB{PersonName: "probe", PersonAge: 999})
		lastErr = err
		return err != nil && errors.Is(err, ErrPeerUnreachable) && sent == 2
	}) {
		t.Fatalf("blackholed link never surfaced ErrPeerUnreachable (last err: %v, seed=%d)", lastErr, seed)
	}
	var ue *UnreachableError
	if !errors.As(lastErr, &ue) {
		t.Fatalf("give-up error is %T, want *UnreachableError in the chain", lastErr)
	}
	if ue.Attempts < 8 && ue.Pending == 0 {
		t.Errorf("UnreachableError carries no diagnostics: %+v", ue)
	}
	// Frames stranded in the dead link's queue were reported, not
	// silently lost.
	if got := pub.Peer().Stats().Snapshot().RelQueueAbandoned; got == 0 {
		t.Error("no abandoned-queue accounting for the blackholed link")
	}

	// Teardown releases every sender/retransmit goroutine.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(10*time.Second, func() bool { return reliableLoopGoroutines() <= goroutineBase }) {
		t.Errorf("reliable loop goroutines leaked: %d > %d", reliableLoopGoroutines(), goroutineBase)
	}
}

// TestScenarioAsymmetricLatencyAdaptiveRTO runs the estimator over an
// asymmetric path (slow data direction, fast ack direction): the RTO
// adapts from the 500ms fallback down toward the measured round trip,
// everything still lands exactly once, and the adapted timer does not
// cause a retransmit storm.
func TestScenarioAsymmetricLatencyAdaptiveRTO(t *testing.T) {
	seed := scenarioSeed(t, 6006)
	defer func() {
		if t.Failed() {
			t.Logf("replay with PTI_SEED=%d", seed)
		}
	}()
	f := NewFabric(seed, WithVirtualClock())
	t.Cleanup(func() { _ = f.Close() })
	regA := registry.New()
	if _, err := regA.Register(fixtures.PersonB{},
		registry.WithConstructor("NewPersonB", fixtures.NewPersonB)); err != nil {
		t.Fatal(err)
	}
	regB := registry.New()
	if _, err := regB.Register(fixtures.PersonA{},
		registry.WithConstructor("NewPersonA", fixtures.NewPersonA)); err != nil {
		t.Fatal(err)
	}
	// MinRTO sits above the path's worst round trip — the guard real
	// stacks use against spurious retransmits when RTTVAR decays on a
	// steady path (Linux floors its RTO at 200ms for the same reason).
	na, err := f.AddPeerWithRegistry("a", regA,
		WithRequestTimeout(5*time.Second),
		WithReliableLinks(
			WithSendQueue(64),
			WithWindow(16),
			WithMinRTO(80*time.Millisecond),
			WithRetransmitTimeout(500*time.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	nb, err := f.AddPeerWithRegistry("b", regB, WithRequestTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	// Data crawls at 50ms±5ms one way; acks sprint back in 1ms.
	if _, _, err := f.ConnectAsymmetric("a", "b",
		FaultProfile{Latency: 50 * time.Millisecond, Jitter: 5 * time.Millisecond},
		FaultProfile{Latency: time.Millisecond}); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	seen := make(map[int]int)
	if err := nb.Peer().OnReceive(fixtures.PersonA{}, func(d Delivery) {
		mu.Lock()
		seen[d.Bound.(*fixtures.PersonA).Age]++
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	ca, _ := na.ConnTo("b")
	const n = 40
	for i := 0; i < n; i++ {
		if err := na.Peer().SendObject(ca, fixtures.PersonB{PersonName: "asym", PersonAge: i}); err != nil {
			t.Fatal(err)
		}
	}
	if !waitUntil(30*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seen) == n
	}) {
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("delivered %d/%d over the asymmetric link (seed=%d)", len(seen), n, seed)
	}
	mu.Lock()
	for age, count := range seen {
		if count != 1 {
			t.Errorf("object %d delivered %d times", age, count)
		}
	}
	mu.Unlock()

	snap, ok := ca.ReliableSnapshot()
	if !ok {
		t.Fatal("sender conn lost its reliable link")
	}
	if snap.RTTSamples == 0 {
		t.Fatal("adaptive RTO never sampled")
	}
	// SRTT must reflect the ~51ms asymmetric round trip, and the RTO
	// must have adapted well below the 500ms fallback.
	if snap.SRTT < 30*time.Millisecond || snap.SRTT > 200*time.Millisecond {
		t.Errorf("SRTT = %v, want ~51ms for a 50ms+1ms path", snap.SRTT)
	}
	if snap.RTO >= 500*time.Millisecond {
		t.Errorf("RTO = %v, never adapted below the fallback", snap.RTO)
	}
	if snap.RTO < 80*time.Millisecond {
		t.Errorf("RTO = %v fell through the 80ms MinRTO floor", snap.RTO)
	}
	// With the floor above the path RTT, a loss-free link must not
	// suffer an adapted-timer retransmit storm.
	if snap.Retransmits > 2 {
		t.Errorf("retransmits = %d on a loss-free link: RTO adapted too low", snap.Retransmits)
	}
}
