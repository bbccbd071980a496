package registry

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"pti/internal/fixtures"
	"pti/internal/typedesc"
)

func TestRegisterAndLookup(t *testing.T) {
	r := New()
	e, err := r.Register(fixtures.PersonA{},
		WithConstructor("NewPersonA", fixtures.NewPersonA),
		WithDownloadPaths("http://peer/code/PersonA"))
	if err != nil {
		t.Fatal(err)
	}
	if e.Description.Name != "PersonA" {
		t.Errorf("Name = %q", e.Description.Name)
	}
	if len(e.DownloadPaths) != 1 {
		t.Errorf("DownloadPaths = %v", e.DownloadPaths)
	}

	got, ok := r.Lookup(typedesc.TypeRef{Name: "PersonA"})
	if !ok || got != e {
		t.Fatal("Lookup by name failed")
	}
	got, ok = r.Lookup(typedesc.TypeRef{Identity: e.Description.Identity})
	if !ok || got != e {
		t.Fatal("Lookup by identity failed")
	}
	if _, ok := r.Lookup(typedesc.TypeRef{Name: "Ghost"}); ok {
		t.Error("found a ghost")
	}
}

func TestRegisterPointerNormalizes(t *testing.T) {
	r := New()
	e, err := r.Register(&fixtures.PersonA{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Type.Kind() != reflect.Struct {
		t.Errorf("Type = %v, want struct", e.Type)
	}
	if _, ok := r.LookupGo(reflect.TypeOf(&fixtures.PersonA{})); !ok {
		t.Error("LookupGo through pointer failed")
	}
}

func TestRegisterReflectType(t *testing.T) {
	r := New()
	if _, err := r.Register(reflect.TypeOf(fixtures.Address{})); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Lookup(typedesc.TypeRef{Name: "Address"}); !ok {
		t.Error("reflect.Type registration failed")
	}
	if _, err := r.Register(nil); err == nil {
		t.Error("Register(nil) should fail")
	}
}

func TestConstruct(t *testing.T) {
	r := New()
	e, err := r.Register(fixtures.PersonA{}, WithConstructor("NewPersonA", fixtures.NewPersonA))
	if err != nil {
		t.Fatal(err)
	}
	v, err := e.Construct("NewPersonA", "Ada", 36)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := v.(*fixtures.PersonA)
	if !ok || p.Name != "Ada" || p.Age != 36 {
		t.Errorf("Construct = %+v", v)
	}

	// Numeric widening is allowed.
	if _, err := e.Construct("NewPersonA", "Ada", int32(36)); err != nil {
		t.Errorf("int32 arg should coerce: %v", err)
	}
	// Wrong arity and wrong types are rejected.
	if _, err := e.Construct("NewPersonA", "Ada"); err == nil {
		t.Error("missing arg accepted")
	}
	if _, err := e.Construct("NewPersonA", 1, 2); err == nil {
		t.Error("wrong arg type accepted")
	}
	if _, err := e.Construct("Nope"); !errors.Is(err, ErrBadConstructor) {
		t.Errorf("unknown ctor: %v", err)
	}
	// A number must not silently become a string.
	if _, err := e.Construct("NewPersonA", 65, 1); err == nil {
		t.Error("int into string arg accepted")
	}
}

func TestConstructNilArgs(t *testing.T) {
	type box struct{ P *fixtures.PersonA }
	newBox := func(p *fixtures.PersonA) *box { return &box{P: p} }
	r := New()
	e, err := r.Register(box{}, WithConstructor("NewBox", newBox))
	if err != nil {
		t.Fatal(err)
	}
	v, err := e.Construct("NewBox", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.(*box).P != nil {
		t.Error("nil pointer arg mangled")
	}
}

func TestDeclareInterface(t *testing.T) {
	r := New()
	if err := r.DeclareInterface((*fixtures.Person)(nil)); err != nil {
		t.Fatal(err)
	}
	// Person's description resolves.
	if _, err := r.Resolve(typedesc.TypeRef{Name: "Person"}); err != nil {
		t.Errorf("interface description missing: %v", err)
	}
	// A type registered afterwards advertises the interface.
	e, err := r.Register(fixtures.PersonA{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, iref := range e.Description.Interfaces {
		if iref.Name == "Person" {
			found = true
		}
	}
	if !found {
		t.Errorf("PersonA should advertise Person: %v", e.Description.Interfaces)
	}
	// Non-interface argument is rejected.
	if err := r.DeclareInterface(42); err == nil {
		t.Error("DeclareInterface(42) should fail")
	}
}

func TestReachableDescriptionsAutoRegistered(t *testing.T) {
	r := New()
	if _, err := r.Register(fixtures.Contact{}); err != nil {
		t.Fatal(err)
	}
	// Contact reaches PersonA and Address; their descriptions (and
	// pointer forms) must resolve even though only Contact was
	// registered.
	for _, name := range []string{"Contact", "PersonA", "Address", "*PersonA", "*Contact"} {
		if _, err := r.Resolve(typedesc.TypeRef{Name: name}); err != nil {
			t.Errorf("description %q missing: %v", name, err)
		}
	}
	// But only Contact has a full entry.
	if _, ok := r.Lookup(typedesc.TypeRef{Name: "PersonA"}); ok {
		t.Error("PersonA should have a description, not an entry")
	}
}

func TestRecursiveTypeRegistration(t *testing.T) {
	r := New()
	if _, err := r.Register(fixtures.Node{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Resolve(typedesc.TypeRef{Name: "Node"}); err != nil {
		t.Error("Node description missing")
	}
	if _, err := r.Resolve(typedesc.TypeRef{Name: "*Node"}); err != nil {
		t.Error("*Node description missing")
	}
}

func TestEntriesSnapshot(t *testing.T) {
	r := New()
	if _, err := r.Register(fixtures.PersonA{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register(fixtures.PersonB{}); err != nil {
		t.Fatal(err)
	}
	if got := len(r.Entries()); got != 2 {
		t.Errorf("Entries = %d, want 2", got)
	}
}

func TestBadConstructorRegistration(t *testing.T) {
	r := New()
	if _, err := r.Register(fixtures.PersonA{}, WithConstructor("New", 42)); err == nil {
		t.Error("non-func constructor accepted")
	}
	// Constructor returning the wrong type is caught by Describe.
	if _, err := r.Register(fixtures.PersonA{}, WithConstructor("New", fixtures.NewPersonB)); err == nil {
		t.Error("wrong-type constructor accepted")
	}
}

func TestUnregister(t *testing.T) {
	r := New()
	e, err := r.Register(fixtures.PersonA{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Unregister(typedesc.TypeRef{Name: "PersonA"}) {
		t.Fatal("Unregister by name failed")
	}
	if _, ok := r.Lookup(typedesc.TypeRef{Name: "PersonA"}); ok {
		t.Error("entry survived Unregister")
	}
	// The description remains resolvable (other types may refer to it).
	if _, err := r.Resolve(typedesc.TypeRef{Name: "PersonA"}); err != nil {
		t.Error("description should survive Unregister")
	}
	if r.Unregister(typedesc.TypeRef{Name: "PersonA"}) {
		t.Error("double Unregister succeeded")
	}
	// Re-register and remove by identity.
	if _, err := r.Register(fixtures.PersonA{}); err != nil {
		t.Fatal(err)
	}
	if !r.Unregister(typedesc.TypeRef{Identity: e.Description.Identity}) {
		t.Error("Unregister by identity failed")
	}
}

// TestEntryCodeBlobBuiltOnce: an entry's code blob is its description
// XML followed by the simulated code padding, the same bytes CodeBlob
// renders, and it is built once per entry.
func TestEntryCodeBlobBuiltOnce(t *testing.T) {
	e, err := New().Register(fixtures.PersonA{})
	if err != nil {
		t.Fatal(err)
	}
	xmlBytes, err := e.DescriptionXML()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := e.CodeBlob()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, CodeBlob(xmlBytes)) || len(blob) != len(xmlBytes)+codePadding {
		t.Fatalf("code blob is %d bytes, want the %d-byte description plus %d padding", len(blob), len(xmlBytes), codePadding)
	}
	again, _ := e.CodeBlob()
	if &again[0] != &blob[0] {
		t.Error("second CodeBlob call rebuilt the blob")
	}
}

// Shared field types of the two holders below: registering the
// second holder finds every one of them described by the first.
type (
	regLeaf struct {
		Name  string
		Count int
	}
	regBranch struct {
		Leaf   regLeaf
		Leaves []regLeaf
		ByName map[string]regLeaf
	}
	regFirstHolder struct {
		Branch  regBranch
		Ptr     *regBranch
		Tags    []string
		Weights map[string]float64
	}
	regSecondHolder struct {
		Branch  regBranch
		Ptr     *regBranch
		Tags    []string
		Weights map[string]float64
	}
)

// mallocs runs f once and returns the heap allocations it made.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestRegisterSkipsDescribedFieldTypes pins the registry's walk of
// reachable types: a second Register whose field types the first
// already described adds only its own two descriptions (the type and
// its pointer) and runs no Describe for the shared field types, so it
// allocates well under half of what the first Register did.
func TestRegisterSkipsDescribedFieldTypes(t *testing.T) {
	r := New()
	var err error
	first := mallocs(func() { _, err = r.Register(regFirstHolder{}) })
	if err != nil {
		t.Fatal(err)
	}
	n := r.Descriptions().Len()
	second := mallocs(func() { _, err = r.Register(regSecondHolder{}) })
	if err != nil {
		t.Fatal(err)
	}
	if added := r.Descriptions().Len() - n; added != 2 {
		t.Errorf("second Register added %d descriptions, want 2 (regSecondHolder and its pointer)", added)
	}
	if second*2 >= first {
		t.Errorf("second Register allocated %d times, want under half of the first's %d", second, first)
	}
	for _, name := range []string{"regLeaf", "regBranch", "*regBranch", "regSecondHolder", "*regSecondHolder"} {
		if _, err := r.Resolve(typedesc.TypeRef{Name: name}); err != nil {
			t.Errorf("description %q missing: %v", name, err)
		}
	}
}
