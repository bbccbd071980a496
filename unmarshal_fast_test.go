package pti

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"pti/internal/fixtures"
	"pti/internal/proxy"
	"pti/internal/transport"
)

// parityRow is one payload unmarshalled as one expected type.
type parityRow struct {
	data     []byte
	expected interface{}
	want     interface{}
}

// Profiles is a local view of the logical "Profile" module, conformant
// to both fixture versions: exactly to ProfileV1, and to ProfileV2
// through Name ⊑ FullName.
type Profiles struct {
	Name string
	Age  int
}

// profileCard is Profiles' shape under a Go spelling unlike the
// logical name it is registered as.
type profileCard struct {
	Name string
	Age  int
}

// TestUnmarshalCompiledParity hammers Unmarshal through enough rounds
// to engage every cache on the receive path — the learned envelope
// shape, the compiled decode program, the memoized conformance
// mapping — and asserts every round binds each payload's own members.
// Rows alternate through one runtime, so a cache keyed too coarsely
// would hand one row's mapping to the next. The compiled path must be
// invisible except for speed.
func TestUnmarshalCompiledParity(t *testing.T) {
	rt := newRuntime(t)
	person := marshalT(t, rt, fixtures.PersonB{PersonName: "Parity", PersonAge: 42})
	checkParity(t, rt, parityRow{person, fixtures.PersonA{}, &fixtures.PersonA{Name: "Parity", Age: 42}})

	// Error behavior must not drift either: a non-conformant expected
	// type keeps failing identically on the warm path.
	_, _, coldErr := rt.Unmarshal(person, fixtures.StockQuoteA{})
	if !errors.Is(coldErr, proxy.ErrNotBindable) {
		t.Errorf("non-conformant expected type: %v", coldErr)
	}
	_, _, warmErr := rt.Unmarshal(person, fixtures.StockQuoteA{})
	if warmErr == nil || coldErr == nil || warmErr.Error() != coldErr.Error() {
		t.Errorf("warm error drifted: cold=%v warm=%v", coldErr, warmErr)
	}

	// Two versions of one logical name, alternated in both orders:
	// each payload binds through its own version's mapping, never the
	// latest version's. The last row binds version 2 as version 1: one
	// name, yet FullName must still land in Name.
	for _, v2First := range []bool{false, true} {
		rt := New()
		for _, v := range []interface{}{fixtures.ProfileV1{}, fixtures.ProfileV2{}} {
			if err := rt.Register(v, WithTypeName("Profile")); err != nil {
				t.Fatal(err)
			}
		}
		if err := rt.Register(Profiles{}); err != nil {
			t.Fatal(err)
		}
		v1 := marshalT(t, rt, fixtures.ProfileV1{Name: "ann", Age: 30})
		v2 := marshalT(t, rt, fixtures.ProfileV2{FullName: "bob", Age: 41, Email: "b@x"})
		rows := []parityRow{
			{v1, Profiles{}, &Profiles{Name: "ann", Age: 30}},
			{v2, Profiles{}, &Profiles{Name: "bob", Age: 41}},
		}
		if v2First {
			rows[0], rows[1] = rows[1], rows[0]
		}
		checkParity(t, rt, append(rows, parityRow{v2, fixtures.ProfileV1{}, &fixtures.ProfileV1{Name: "bob", Age: 41}})...)
	}

	// An expected type registered under a logical name unlike its Go
	// spelling keeps its renamed members: ProfileV2's FullName lands in
	// Name.
	rt = New()
	if err := rt.Register(fixtures.ProfileV2{}, WithTypeName("Profile")); err != nil {
		t.Fatal(err)
	}
	if err := rt.Register(profileCard{}, WithTypeName("Profiles")); err != nil {
		t.Fatal(err)
	}
	card := marshalT(t, rt, fixtures.ProfileV2{FullName: "bob", Age: 41, Email: "b@x"})
	checkParity(t, rt, parityRow{card, profileCard{}, &profileCard{Name: "bob", Age: 41}})

	// A type with a pointer field has no compiled encoder. Registered
	// under a logical name, its reflective payload must carry that name
	// at the root as the compiled encoders do, or the payload disagrees
	// with the envelope's reference and a renamed expected type binds
	// no members. (A non-nil nested object still arrives zeroed:
	// ROADMAP item 1.)
	for _, c := range bothCodecs {
		rt := New(c.opt)
		registerChain(t, rt)
		chain := marshalT(t, rt, chainLink{Label: "head"})
		checkParity(t, rt, parityRow{chain, chainView{}, &chainView{Labels: "head"}})
	}
}

// bothCodecs selects each payload codec in turn.
var bothCodecs = []struct {
	name string
	opt  Option
}{{"binary", WithBinary()}, {"soap", WithSOAP()}}

// chainLink carries a pointer field, so no compiled encoder covers it
// and every encode of it takes the reflective path.
type chainLink struct {
	Label string
	Next  *chainLink
}

// chainView is a conformant view of chainLink under other member
// names (Labels ⊑ Label, Nexts ⊑ Next).
type chainView struct {
	Labels string
	Nexts  *chainLink
}

// registerChain registers chainLink and chainView under logical names
// unlike their Go spellings.
func registerChain(t *testing.T, rt *Runtime) {
	t.Helper()
	if err := rt.Register(chainLink{}, WithTypeName("Chain")); err != nil {
		t.Fatal(err)
	}
	if err := rt.Register(chainView{}, WithTypeName("ChainView")); err != nil {
		t.Fatal(err)
	}
}

// bodyLink is a Link stub that keeps the body of every message sent
// through it.
type bodyLink struct{ bodies [][]byte }

func (l *bodyLink) Send(m *transport.Message) error {
	l.bodies = append(l.bodies, m.Body)
	return nil
}

func (l *bodyLink) Close() error { return nil }

// TestMarshalMatchesSendObject pins that the facade and the transport
// write one envelope: for every fixture type, plus renamed direct and
// reflective types, Marshal returns exactly the optimistic body
// SendObject puts on the link, minus its flag byte, under both codecs.
func TestMarshalMatchesSendObject(t *testing.T) {
	values := []interface{}{
		fixtures.PersonA{Name: "ann", Age: 30},
		fixtures.PersonB{PersonName: "bob", PersonAge: 41},
		fixtures.Employee{PersonA: fixtures.PersonA{Name: "eve", Age: 29}, Company: "acme"},
		fixtures.Address{Street: "1 Main", City: "Lausanne", Zip: "1015"},
		fixtures.Contact{Who: fixtures.PersonA{Name: "cy", Age: 5}, Where: fixtures.Address{City: "Bern"}, Tags: []string{"a", "b"}},
		fixtures.Node{Value: 1, Next: &fixtures.Node{Value: 2}},
		fixtures.StockQuoteA{Symbol: "ACME", Price: 12.5, Volume: 100},
		fixtures.StockQuoteB{StockSymbol: "ACME", StockPrice: 12.5, StockVolume: 100},
		fixtures.ProfileV2{FullName: "pat", Age: 50, Email: "p@x"},
		fixtures.Swapped{},
	}
	// Registered under logical names: a direct and a reflective type.
	renamed := []interface{}{
		fixtures.ProfileV1{Name: "pat", Age: 50},
		chainLink{Label: "head", Next: &chainLink{Label: "tail"}},
	}
	for _, c := range bothCodecs {
		t.Run(c.name, func(t *testing.T) {
			rt := New(c.opt)
			for _, v := range values {
				if err := rt.Register(v); err != nil {
					t.Fatal(err)
				}
			}
			if err := rt.Register(fixtures.ProfileV1{}, WithTypeName("Profile")); err != nil {
				t.Fatal(err)
			}
			registerChain(t, rt)
			peer := rt.NewPeer("sender")
			defer peer.Close()
			link := &bodyLink{}
			for _, v := range append(values, renamed...) {
				want := marshalT(t, rt, v)
				if err := peer.SendObject(link, v); err != nil {
					t.Fatalf("%T: %v", v, err)
				}
				body := link.bodies[len(link.bodies)-1]
				if len(body) == 0 || body[0] != 0 || !bytes.Equal(body[1:], want) {
					t.Fatalf("%T: SendObject body differs from Marshal\n got %q\nwant %q", v, body, want)
				}
			}
		})
	}
}

// checkParity unmarshals the rows round-robin and fails on the first
// result that is not the row's want or comes without a mapping.
func checkParity(t *testing.T, rt *Runtime, rows ...parityRow) {
	t.Helper()
	for round := 0; round < 8; round++ {
		for i, row := range rows {
			out, mapping, err := rt.Unmarshal(row.data, row.expected)
			if err != nil {
				t.Fatalf("round %d row %d: %v", round, i, err)
			}
			if !reflect.DeepEqual(out, row.want) {
				t.Fatalf("round %d row %d: got %+v, want %+v", round, i, out, row.want)
			}
			if mapping == nil {
				t.Fatalf("round %d row %d: no mapping", round, i)
			}
		}
	}
}

func marshalT(t *testing.T, rt *Runtime, v interface{}) []byte {
	t.Helper()
	data, err := rt.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestUnmarshalSteadyStateAllocs proves the compiled receive path
// actually carries the warm facade traffic: a reflective decode of
// even this two-field struct costs dozens of allocations (a full
// encoding/xml parse plus the generic value tree), so the pinned
// budget below is only reachable when the learned-envelope fast path
// and the compiled decoder are both engaged.
func TestUnmarshalSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode randomizes sync.Pool reuse; the pin only holds in a normal build")
	}
	rt := newRuntime(t)
	data, err := rt.Marshal(fixtures.PersonB{PersonName: "Steady", PersonAge: 7})
	if err != nil {
		t.Fatal(err)
	}
	var expected interface{} = fixtures.PersonA{}
	for i := 0; i < 4; i++ { // warm every cache
		if _, _, err := rt.Unmarshal(data, expected); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		out, _, err := rt.Unmarshal(data, expected)
		if err != nil {
			t.Fatal(err)
		}
		if out.(*fixtures.PersonA).Age != 7 {
			t.Fatal("wrong value")
		}
	})
	// The destination object, its one string field, the envelope
	// header copy and one decoder-internal transient — an order of
	// magnitude under the reflective pipeline.
	if allocs > 4 {
		t.Errorf("steady-state Unmarshal allocates %.1f/op, want <= 4", allocs)
	}
}

// TestMarshalSteadyStateAllocs pins Marshal of a pre-boxed direct type
// at the one allocation of its result, under both codecs: the payload
// is encoded into pooled scratch and the envelope written once, at
// exact size.
func TestMarshalSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode randomizes sync.Pool reuse; the pin only holds in a normal build")
	}
	var v interface{} = fixtures.PersonB{PersonName: "Steady", PersonAge: 7}
	for _, c := range bothCodecs {
		t.Run(c.name, func(t *testing.T) {
			rt := newRuntime(t, c.opt)
			marshalT(t, rt, v) // compile the program and the template
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := rt.Marshal(v); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 1 {
				t.Errorf("steady-state Marshal allocates %.1f/op, want <= 1", allocs)
			}
		})
	}
}
