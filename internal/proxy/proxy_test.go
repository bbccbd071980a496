package proxy

import (
	"errors"
	"reflect"
	"testing"

	"pti/internal/conform"
	"pti/internal/fixtures"
	"pti/internal/registry"
	"pti/internal/typedesc"
	"pti/internal/wire"
)

// newWorld builds a receiver-side world: a registry with local
// implementations, a relaxed checker over it, and a binder.
func newWorld(t *testing.T) (*registry.Registry, *conform.Checker, *Binder) {
	t.Helper()
	reg := registry.New()
	for _, v := range []interface{}{
		fixtures.PersonA{}, fixtures.Contact{}, fixtures.Node{}, fixtures.StockQuoteA{},
	} {
		if _, err := reg.Register(v); err != nil {
			t.Fatal(err)
		}
	}
	// Remote descriptions the receiver has "downloaded".
	cat := registry.NewCatalog(reg, nil, nil)
	for _, v := range []interface{}{
		fixtures.PersonB{}, fixtures.StockQuoteB{},
	} {
		d, err := typedesc.Describe(reflect.TypeOf(v))
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.Learn(d); err != nil {
			t.Fatal(err)
		}
	}
	checker := conform.New(cat, conform.WithPolicy(conform.Relaxed(1)))
	return reg, checker, NewBinder(cat, checker)
}

func mappingFor(t *testing.T, checker *conform.Checker, cand, exp interface{}) *conform.Mapping {
	t.Helper()
	cd, err := typedesc.Describe(reflect.TypeOf(cand))
	if err != nil {
		t.Fatal(err)
	}
	ed, err := typedesc.Describe(reflect.TypeOf(exp))
	if err != nil {
		t.Fatal(err)
	}
	r, err := checker.Check(cd, ed)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Conformant {
		t.Fatalf("%s should conform to %s: %s", cd.Name, ed.Name, r.Reason)
	}
	return r.Mapping
}

func TestInvokerMappedCalls(t *testing.T) {
	_, checker, _ := newWorld(t)
	m := mappingFor(t, checker, fixtures.PersonB{}, fixtures.PersonA{})

	inv, err := NewInvoker(&fixtures.PersonB{PersonName: "Ada", PersonAge: 36}, m)
	if err != nil {
		t.Fatal(err)
	}
	// Call in PersonA's vocabulary; execution lands on PersonB.
	out, err := inv.Call("GetName")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != "Ada" {
		t.Errorf("GetName = %v", out)
	}
	if _, err := inv.Call("SetName", "Grace"); err != nil {
		t.Fatal(err)
	}
	out, err = inv.Call("GetName")
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != "Grace" {
		t.Errorf("after SetName, GetName = %v", out)
	}
	out, err = inv.Call("GetAge")
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 36 {
		t.Errorf("GetAge = %v", out)
	}
}

func TestInvokerMappedFields(t *testing.T) {
	_, checker, _ := newWorld(t)
	m := mappingFor(t, checker, fixtures.PersonB{}, fixtures.PersonA{})
	inv, err := NewInvoker(&fixtures.PersonB{PersonName: "Ada", PersonAge: 36}, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := inv.Get("Name")
	if err != nil || got != "Ada" {
		t.Errorf("Get(Name) = %v, %v", got, err)
	}
	if err := inv.Set("Age", 40); err != nil {
		t.Fatal(err)
	}
	got, err = inv.Get("Age")
	if err != nil || got != 40 {
		t.Errorf("Get(Age) = %v, %v", got, err)
	}
	target := inv.Target().(*fixtures.PersonB)
	if target.PersonAge != 40 {
		t.Errorf("underlying PersonAge = %d", target.PersonAge)
	}
	if _, err := inv.Get("NoSuch"); !errors.Is(err, ErrNoSuchField) {
		t.Errorf("Get(NoSuch) = %v", err)
	}
}

func TestInvokerPermutedArguments(t *testing.T) {
	checker := conform.New(nil, conform.WithPolicy(conform.Relaxed(2)))
	m := mappingFor(t, checker, fixtures.Swapped{}, fixtures.Swappee{})
	inv, err := NewInvoker(fixtures.Swapped{}, m)
	if err != nil {
		t.Fatal(err)
	}
	// Swappee order: (count int, label string). Swapped wants
	// (label, count); the proxy must reorder.
	out, err := inv.Call("Combine", 3, "hello")
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != "hello" {
		t.Errorf("Combine = %v", out)
	}
}

func TestInvokerIdentityMapping(t *testing.T) {
	inv, err := NewInvoker(&fixtures.PersonA{Name: "Tim"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := inv.Call("GetName")
	if err != nil || out[0] != "Tim" {
		t.Errorf("identity Call = %v, %v", out, err)
	}
	got, err := inv.Get("Name")
	if err != nil || got != "Tim" {
		t.Errorf("identity Get = %v, %v", got, err)
	}
}

func TestInvokerValueTargetReboxed(t *testing.T) {
	// A struct value (not pointer) still supports pointer-receiver
	// methods via re-boxing.
	inv, err := NewInvoker(fixtures.PersonA{Name: "Val"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inv.Call("SetName", "Changed"); err != nil {
		t.Fatal(err)
	}
	out, _ := inv.Call("GetName")
	if out[0] != "Changed" {
		t.Errorf("value target mutation lost: %v", out)
	}
}

func TestInvokerErrors(t *testing.T) {
	if _, err := NewInvoker(nil, nil); err == nil {
		t.Error("nil target accepted")
	}
	inv, _ := NewInvoker(&fixtures.PersonA{}, nil)
	if _, err := inv.Call("NoSuchMethod"); !errors.Is(err, ErrNoSuchMethod) {
		t.Errorf("unknown method: %v", err)
	}
	if _, err := inv.Call("SetName"); !errors.Is(err, ErrBadArguments) {
		t.Errorf("bad arity: %v", err)
	}
	if _, err := inv.Call("SetName", 42); !errors.Is(err, ErrBadArguments) {
		t.Errorf("bad arg type: %v", err)
	}
}

func TestNameOnlyMappingFailsAtCallTime(t *testing.T) {
	// The paper's Section 4.2 warning, executed: a name-only check
	// produces an identity mapping, and the call then explodes at
	// runtime because PersonB has no GetName.
	nameOnly := conform.NewNameOnly(conform.Relaxed(1))
	cd := typedesc.MustDescribe(reflect.TypeOf(fixtures.PersonB{}))
	ed := typedesc.MustDescribe(reflect.TypeOf(fixtures.PersonA{}))
	r, err := nameOnly.Check(cd, ed)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Conformant {
		t.Fatal("name-only should have accepted")
	}
	inv, err := NewInvoker(&fixtures.PersonB{PersonName: "X"}, r.Mapping)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inv.Call("GetName"); !errors.Is(err, ErrNoSuchMethod) {
		t.Errorf("name-only mapping should fail at call time, got %v", err)
	}

	// The full rule's mapping succeeds on the same pair.
	full := conform.New(nil, conform.WithPolicy(conform.Relaxed(1)))
	rf, err := full.Check(cd, ed)
	if err != nil {
		t.Fatal(err)
	}
	inv2, _ := NewInvoker(&fixtures.PersonB{PersonName: "X"}, rf.Mapping)
	if out, err := inv2.Call("GetName"); err != nil || out[0] != "X" {
		t.Errorf("full mapping should work: %v, %v", out, err)
	}
}

func TestViewMappedReads(t *testing.T) {
	_, checker, _ := newWorld(t)
	m := mappingFor(t, checker, fixtures.PersonB{}, fixtures.PersonA{})
	gv, err := wire.FromGo(fixtures.PersonB{PersonName: "Remote", PersonAge: 9})
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(gv.(*wire.Object), m)
	if err != nil {
		t.Fatal(err)
	}
	name, err := v.Get("Name")
	if err != nil || name != "Remote" {
		t.Errorf("View Get(Name) = %v, %v", name, err)
	}
	age, err := v.Get("Age")
	if err != nil || age != int64(9) {
		t.Errorf("View Get(Age) = %v, %v", age, err)
	}
	if _, err := v.Get("Ghost"); !errors.Is(err, ErrNoSuchField) {
		t.Errorf("Ghost: %v", err)
	}
	if v.Object() == nil {
		t.Error("Object() nil")
	}
	if _, err := NewView(nil, nil); err == nil {
		t.Error("nil object accepted")
	}
}

func TestBindPersonBIntoPersonA(t *testing.T) {
	_, _, binder := newWorld(t)
	gv, err := wire.FromGo(fixtures.PersonB{PersonName: "Bound", PersonAge: 77})
	if err != nil {
		t.Fatal(err)
	}
	out, m, err := binder.Bind(gv.(*wire.Object), typedesc.TypeRef{Name: "PersonA"})
	if err != nil {
		t.Fatal(err)
	}
	pa, ok := out.(*fixtures.PersonA)
	if !ok {
		t.Fatalf("bound value type %T", out)
	}
	if pa.Name != "Bound" || pa.Age != 77 {
		t.Errorf("bound = %+v", pa)
	}
	if m == nil {
		t.Error("mapping missing")
	}
	// The bound value is a real local object: direct method calls.
	if pa.GetName() != "Bound" {
		t.Error("bound object methods broken")
	}
}

func TestBindStockQuote(t *testing.T) {
	_, _, binder := newWorld(t)
	gv, err := wire.FromGo(fixtures.StockQuoteB{StockSymbol: "NESN", StockPrice: 102.5, StockVolume: 4000})
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := binder.Bind(gv.(*wire.Object), typedesc.TypeRef{Name: "StockQuoteA"})
	if err != nil {
		t.Fatal(err)
	}
	q := out.(*fixtures.StockQuoteA)
	if q.Symbol != "NESN" || q.Price != 102.5 || q.Volume != 4000 {
		t.Errorf("bound quote = %+v", q)
	}
}

func TestBindRejectsNonConformant(t *testing.T) {
	_, _, binder := newWorld(t)
	gv, err := wire.FromGo(fixtures.Address{City: "Basel"})
	if err != nil {
		t.Fatal(err)
	}
	// Address does not conform to PersonA; the remote repo does not
	// even know Address, and the name fallback rejects it.
	if _, _, err := binder.Bind(gv.(*wire.Object), typedesc.TypeRef{Name: "PersonA"}); err == nil {
		t.Error("non-conformant bind accepted")
	}
	if _, _, err := binder.Bind(nil, typedesc.TypeRef{Name: "PersonA"}); err == nil {
		t.Error("nil object accepted")
	}
	if _, _, err := binder.Bind(gv.(*wire.Object), typedesc.TypeRef{Name: "Unregistered"}); !errors.Is(err, ErrNotBindable) {
		t.Errorf("unregistered target: %v", err)
	}
}

func TestDecodeValueList(t *testing.T) {
	_, _, binder := newWorld(t)
	for _, codec := range []wire.Codec{wire.SOAP{}, wire.Binary{}} {
		data, err := codec.EncodeCompiled(nil, nil, []int{1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		typ := reflect.TypeOf([]int{})
		prog, err := wire.CompileProgram(typ)
		if err != nil {
			t.Fatal(err)
		}
		out, err := binder.DecodeValue(codec, prog, data, typ)
		if err != nil {
			t.Fatal(err)
		}
		if s := out.([]int); len(s) != 3 || s[2] != 3 {
			t.Errorf("%s: DecodeValue = %v", codec.Name(), s)
		}
	}
}

// memoQuote is the local type of the memo tests. quoteSame and
// quoteRenamed describe two versions of the source name "Quote": the
// first maps member for member, the second renames Cost to Costs,
// which Relaxed(1) still matches.
type memoQuote struct {
	Symbol string
	Cost   float64
}

type quoteSame struct {
	Symbol string
	Cost   float64
}

type quoteRenamed struct {
	Symbol string
	Costs  float64
}

// memoWorld registers memoQuote and returns its entry, the binder,
// the catalog that learns descriptions, and one "Quote" payload per
// codec whose Cost and Costs fields differ, so the decoded Cost shows
// which mapping the decode followed.
func memoWorld(t *testing.T) (*registry.Entry, *Binder, *registry.Catalog, map[wire.Codec][]byte) {
	t.Helper()
	reg := registry.New()
	entry, err := reg.Register(memoQuote{})
	if err != nil {
		t.Fatal(err)
	}
	cat := registry.NewCatalog(reg, nil, nil)
	checker := conform.New(cat, conform.WithPolicy(conform.Relaxed(1)))
	src := &wire.Object{TypeName: "Quote", Fields: []wire.FieldValue{
		{Name: "Symbol", Value: "Q"}, {Name: "Cost", Value: 1.0}, {Name: "Costs", Value: 2.0},
	}}
	payloads := map[wire.Codec][]byte{}
	for codec, encode := range map[wire.Codec]func(wire.Value) ([]byte, error){
		wire.SOAP{}: wire.EncodeSOAP, wire.Binary{}: wire.EncodeBinary,
	} {
		if payloads[codec], err = encode(src); err != nil {
			t.Fatal(err)
		}
	}
	return entry, NewBinder(cat, checker), cat, payloads
}

func learnQuote(t *testing.T, cat *registry.Catalog, v interface{}) {
	t.Helper()
	d, err := typedesc.Describe(reflect.TypeOf(v), typedesc.WithName("Quote"))
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Learn(d); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeValueMemoFollowsDescriptions decodes one name-only
// payload through the argument path before and after a description
// of its source type is learned: the memoized materializer table must
// not outlive the description generation it was built under.
func TestDecodeValueMemoFollowsDescriptions(t *testing.T) {
	for _, codec := range []wire.Codec{wire.SOAP{}, wire.Binary{}} {
		t.Run(codec.Name(), func(t *testing.T) {
			entry, binder, cat, payloads := memoWorld(t)
			data := payloads[codec]
			typ := reflect.PtrTo(entry.Type)
			prog, err := entry.Program()
			if err != nil {
				t.Fatal(err)
			}
			decode := func(wantCost float64) {
				t.Helper()
				gv, err := codec.DecodeGeneric(data)
				if err != nil {
					t.Fatal(err)
				}
				want, err := wire.ToGo(gv, typ, binder.resolve)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 2; i++ {
					got, err := binder.DecodeValue(codec, prog, data, typ)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("decode %d: got %+v, reflective %+v", i, got, want)
					}
				}
				if c := want.(*memoQuote).Cost; c != wantCost {
					t.Fatalf("reflective Cost = %v, want %v", c, wantCost)
				}
			}
			decode(1) // no description of Quote: names map as identity
			learnQuote(t, cat, quoteRenamed{})
			decode(2) // Cost now maps to Costs
		})
	}
}

// TestDeserializeCompiledNameOnlyFollowsDescriptions is the typed
// result path's counterpart: a name-only source ref binds through the
// latest description of its name, and a newer version learned between
// two decodes changes the mapping the next decode follows.
func TestDeserializeCompiledNameOnlyFollowsDescriptions(t *testing.T) {
	for _, codec := range []wire.Codec{wire.SOAP{}, wire.Binary{}} {
		t.Run(codec.Name(), func(t *testing.T) {
			entry, binder, cat, payloads := memoWorld(t)
			data := payloads[codec]
			src := typedesc.TypeRef{Name: "Quote"}
			decode := func(wantCost float64) {
				t.Helper()
				obj, err := DecodeObject(codec, data)
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := binder.bindEntry(obj, src, entry)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 2; i++ {
					got, _, ok := binder.DeserializeCompiled(codec, entry, data, src)
					if !ok {
						t.Fatalf("decode %d: compiled decode declined", i)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("decode %d: got %+v, reflective %+v", i, got, want)
					}
				}
				if c := want.(*memoQuote).Cost; c != wantCost {
					t.Fatalf("reflective Cost = %v, want %v", c, wantCost)
				}
			}
			learnQuote(t, cat, quoteSame{})
			decode(1)
			learnQuote(t, cat, quoteRenamed{})
			decode(2)
		})
	}
}

func TestBinderMappingMemoized(t *testing.T) {
	_, _, binder := newWorld(t)
	gv, _ := wire.FromGo(fixtures.PersonB{PersonName: "A"})
	obj := gv.(*wire.Object)
	_, m1, err := binder.Bind(obj, typedesc.TypeRef{Name: "PersonA"})
	if err != nil {
		t.Fatal(err)
	}
	memo := binder.last.Load()
	_, m2, err := binder.Bind(obj, typedesc.TypeRef{Name: "PersonA"})
	if err != nil {
		t.Fatal(err)
	}
	if memo == nil || memo.src != (typedesc.TypeRef{Name: "PersonB"}) || memo.target.Name != "PersonA" {
		t.Fatalf("memo after first bind = %+v, want PersonB -> PersonA", memo)
	}
	if binder.last.Load() != memo || m1 != m2 || m2 != memo.m {
		t.Error("repeated bind of one pair did not reuse the memoized mapping")
	}
}
