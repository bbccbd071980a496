package pti_test

// One runnable example per facade option group (see options.go and
// store.go): runtime, registration/versioning, peer reliability, peer
// lifecycle, peer invoke, fabric, and the durable registry store.

import (
	"fmt"
	"os"
	"time"

	"pti"
)

// exPersonA and exPersonB mirror the paper's running example: two
// Person types written by different programmers, conformant under the
// relaxed policy only.
type exPersonA struct {
	Name string
	Age  int
}

func (p exPersonA) GetName() string { return p.Name }
func (p exPersonA) GetAge() int     { return p.Age }

type exPersonB struct {
	PersonName string
	PersonAge  int
}

func (p exPersonB) GetPersonName() string { return p.PersonName }
func (p exPersonB) GetPersonAge() int     { return p.PersonAge }

// exProfileV1 and exProfileV2 are two structural generations of one
// logical "Profile" type, registered into a single version chain with
// WithTypeName.
type exProfileV1 struct {
	Name string
}

type exProfileV2 struct {
	FullName string
	Email    string
}

// Runtime options: the conformance policy decides which foreign types
// a local type accepts. The pragmatic relaxed policy unifies the
// paper's setName/setPersonName example; the strict Figure 2 rule
// does not.
func ExampleWithPolicy() {
	relaxed := pti.New(pti.WithPolicy(pti.RelaxedPolicy(1)))
	res, _ := relaxed.ConformsTo(exPersonB{}, exPersonA{})
	fmt.Println("relaxed:", res.Conformant)

	strict := pti.New(pti.WithPolicy(pti.StrictPolicy()))
	res, _ = strict.ConformsTo(exPersonB{}, exPersonA{})
	fmt.Println("strict:", res.Conformant)
	// Output:
	// relaxed: true
	// strict: false
}

// Registration options: WithTypeName places two Go types in one
// logical version chain. Both versions stay live — LookupVersion pins
// either — and unregistering the newest resurfaces its predecessor.
func ExampleWithTypeName() {
	rt := pti.New()
	_ = rt.Register(exProfileV1{}, pti.WithTypeName("Profile"))
	_ = rt.Register(exProfileV2{}, pti.WithTypeName("Profile"))
	fmt.Println("versions:", rt.Versions("Profile"))

	d, ok := rt.LookupVersion("Profile", 1)
	fmt.Println("v1 pinned:", ok, d.Name)

	rt.Unregister("Profile")
	fmt.Println("after unregister:", rt.Versions("Profile"))
	// Output:
	// versions: [1 2]
	// v1 pinned: true Profile
	// after unregister: [1]
}

// Peer reliability options: reliable links rebuild exactly-once
// in-order delivery above a lossy fabric link — the broadcast below
// survives a 30% drop rate.
func ExampleWithReliableLinks() {
	rt := pti.New()
	_ = rt.Register(exPersonA{})

	f := rt.NewFabric(7, pti.WithVirtualClock())
	defer func() { _ = f.Close() }()
	a, _ := f.AddPeer("a", pti.WithReliableLinks(pti.WithWindow(8)))
	b, _ := f.AddPeer("b", pti.WithReliableLinks())
	_, _, _ = f.Connect("a", "b", pti.FaultProfile{DropRate: 0.3})

	got := make(chan string, 1)
	_ = b.Peer().OnReceive(exPersonA{}, func(d pti.Delivery) { got <- d.TypeName })
	_, _ = a.Peer().Broadcast(exPersonA{Name: "ann", Age: 30})
	fmt.Println("delivered", <-got)
	// Output: delivered exPersonA
}

// Peer lifecycle options: tune the failure detector and redial
// circuit breaker of managed remotes, which walk the health
// progression below (see docs/health.md).
func ExampleWithHeartbeat() {
	rt := pti.New()
	p := rt.NewPeer("node",
		pti.WithHeartbeat(50*time.Millisecond),
		pti.WithSuspectAfter(200*time.Millisecond),
		pti.WithRedialBackoff(10*time.Millisecond, 100*time.Millisecond),
		pti.WithMaxRedials(3),
	)
	defer func() { _ = p.Close() }()
	fmt.Println(pti.HealthHealthy, "->", pti.HealthSuspect, "->", pti.HealthQuarantined)
	// Output: healthy -> suspect -> quarantined
}

// Peer invoke options: bound the pipelined pass-by-reference path on
// both sides, then call a remote object through its conformance
// mapping — GetName runs the server's GetPersonName.
func ExampleWithInvokeConcurrency() {
	rt := pti.New()
	server := rt.NewPeer("server", pti.WithInvokeConcurrency(2, 8))
	client := rt.NewPeer("client", pti.WithInvokePacing(4, 0))
	defer func() { _ = server.Close(); _ = client.Close() }()

	ca, _ := pti.Connect(client, server)
	_ = server.Export("greeter", &exPersonB{PersonName: "ann", PersonAge: 30})

	ref, err := client.Remote(ca, "greeter", exPersonA{})
	if err != nil {
		fmt.Println(err)
		return
	}
	out, _ := ref.Call("GetName")
	fmt.Println(out[0])
	// Output: ann
}

// Fabric options: the virtual clock compresses injected latency, so
// three deliveries over a 250ms link replay in real milliseconds —
// deterministically, from the fabric seed.
func ExampleWithVirtualClock() {
	rt := pti.New()
	_ = rt.Register(exPersonA{})

	f := rt.NewFabric(42, pti.WithVirtualClock())
	defer func() { _ = f.Close() }()
	a, _ := f.AddPeer("alpha")
	b, _ := f.AddPeer("beta")
	_, _, _ = f.Connect("alpha", "beta", pti.FaultProfile{Latency: 250 * time.Millisecond})

	const n = 3
	got := make(chan struct{}, n)
	_ = b.Peer().OnReceive(exPersonA{}, func(pti.Delivery) { got <- struct{}{} })
	for i := 0; i < n; i++ {
		_, _ = a.Peer().Broadcast(exPersonA{Name: "ann", Age: i})
	}
	for i := 0; i < n; i++ {
		<-got
	}
	fmt.Println("delivered", n, "messages over a 250ms link")
	// Output: delivered 3 messages over a 250ms link
}

// Durable registry store: a FileStore survives the process. The
// second run re-registers the evolved type and version numbering
// continues from the store's high-water mark — version 1 is not
// reused, and both generations sit in the store.
func ExampleNewWithStore() {
	dir, _ := os.MkdirTemp("", "pti-store-*")
	defer func() { _ = os.RemoveAll(dir) }()

	st, _ := pti.OpenFileStore(dir)
	rt, _ := pti.NewWithStore(st)
	_ = rt.Register(exProfileV1{}, pti.WithTypeName("Profile"))
	fmt.Println("first run versions:", rt.Versions("Profile"))
	_ = st.Close()

	st2, _ := pti.OpenFileStore(dir)
	rt2, _ := pti.NewWithStore(st2)
	_ = rt2.Register(exProfileV2{}, pti.WithTypeName("Profile"))
	fmt.Println("after restart versions:", rt2.Versions("Profile"))
	recs, _ := st2.List(pti.KindDescription)
	for _, rec := range recs {
		fmt.Println(rec.Key)
	}
	_ = st2.Close()
	// Output:
	// first run versions: [1]
	// after restart versions: [2]
	// desc/Profile@1
	// desc/Profile@2
}

// The change feed: every registry mutation — registration, new
// version, tombstone — rides the backing store's Watch feed in total
// order, so peers sharing a store learn each other's registrations.
func ExampleRuntime_Watch() {
	st := pti.NewMemStore()
	events, cancel := st.Watch()
	defer cancel()

	rt, _ := pti.NewWithStore(st)
	_ = rt.Register(exProfileV1{}, pti.WithTypeName("Profile"))
	_ = rt.Register(exProfileV2{}, pti.WithTypeName("Profile"))
	rt.Unregister("Profile")

	for i := 0; i < 3; i++ {
		ev := <-events
		fmt.Println(ev.Seq, ev.Op, ev.Record.Key)
	}
	// Output:
	// 1 put desc/Profile@1
	// 2 put desc/Profile@2
	// 3 tombstone desc/Profile@2
}
