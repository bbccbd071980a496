package pti

import (
	"errors"
	"reflect"
	"testing"

	"pti/internal/fixtures"
	"pti/internal/proxy"
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
