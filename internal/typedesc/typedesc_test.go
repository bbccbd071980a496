package typedesc

import (
	"errors"
	"reflect"
	"testing"

	"pti/internal/fixtures"
	"pti/internal/guid"
)

func TestKindStringParseRoundTrip(t *testing.T) {
	for k := KindInvalid; k <= KindFunc; k++ {
		if got := ParseKind(k.String()); got != k {
			t.Errorf("ParseKind(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if ParseKind("nonsense") != KindInvalid {
		t.Error("unknown kind name should parse as invalid")
	}
	if Kind(99).String() == "" {
		t.Error("out-of-range kind should still render")
	}
}

func TestTypeRefBasics(t *testing.T) {
	var zero TypeRef
	if !zero.IsZero() {
		t.Error("zero TypeRef should be zero")
	}
	r := TypeRef{Name: "Person", Identity: guid.Derive("p")}
	if r.IsZero() {
		t.Error("populated ref should not be zero")
	}
	if r.String() == "Person" {
		t.Error("String should include identity when present")
	}
	if (TypeRef{Name: "Person"}).String() != "Person" {
		t.Error("String without identity should be bare name")
	}
	if !r.SameIdentity(TypeRef{Name: "Other", Identity: guid.Derive("p")}) {
		t.Error("SameIdentity should ignore names")
	}
	if (TypeRef{}).SameIdentity(TypeRef{}) {
		t.Error("nil identities are never the same")
	}
}

func TestMethodSignature(t *testing.T) {
	m := Method{
		Name:    "SetName",
		Params:  []TypeRef{{Name: "string"}},
		Returns: []TypeRef{{Name: "error"}},
	}
	if got := m.Signature(); got != "SetName(string) (error)" {
		t.Errorf("Signature = %q", got)
	}
	if m.Arity() != 1 {
		t.Errorf("Arity = %d", m.Arity())
	}
	empty := Method{Name: "Ping"}
	if got := empty.Signature(); got != "Ping()" {
		t.Errorf("Signature = %q", got)
	}
}

func TestEqualAndClone(t *testing.T) {
	d1 := MustDescribe(reflect.TypeOf(fixtures.Employee{}),
		WithConstructor("NewEmployee", fixtures.NewEmployee),
		WithDownloadPaths("http://x"))
	d2 := d1.Clone()
	if !Equal(d1, d2) {
		t.Fatal("clone should be Equal")
	}
	// Equality must be deep: mutate the clone in each dimension.
	mutations := []func(*TypeDescription){
		func(d *TypeDescription) { d.Name = "Other" },
		func(d *TypeDescription) { d.Identity = guid.Derive("x") },
		func(d *TypeDescription) { d.Kind = KindInterface },
		func(d *TypeDescription) { d.Super = nil },
		func(d *TypeDescription) { d.Fields[0].Name = "Mutated" },
		func(d *TypeDescription) { d.Methods[0].Params = append(d.Methods[0].Params, TypeRef{Name: "int"}) },
		func(d *TypeDescription) { d.Constructors[0].Name = "Other" },
		func(d *TypeDescription) { d.Methods = d.Methods[:len(d.Methods)-1] },
	}
	for i, mutate := range mutations {
		c := d1.Clone()
		mutate(c)
		if Equal(d1, c) {
			t.Errorf("mutation %d not detected by Equal", i)
		}
	}
	// Download paths are metadata, not structure.
	c := d1.Clone()
	c.DownloadPaths = nil
	if !Equal(d1, c) {
		t.Error("download paths must not affect Equal")
	}
	if !Equal(nil, nil) {
		t.Error("Equal(nil, nil)")
	}
	if Equal(d1, nil) || Equal(nil, d1) {
		t.Error("Equal with one nil")
	}
}

func TestCloneIsDeep(t *testing.T) {
	d := MustDescribe(reflect.TypeOf(fixtures.PersonA{}),
		WithConstructor("NewPersonA", fixtures.NewPersonA))
	c := d.Clone()
	c.Fields[0].Name = "Hacked"
	c.Methods[0].Params = append(c.Methods[0].Params, TypeRef{Name: "int"})
	if d.Fields[0].Name == "Hacked" {
		t.Error("Clone shares Fields backing array")
	}
	if Clone := (*TypeDescription)(nil).Clone(); Clone != nil {
		t.Error("nil Clone should be nil")
	}
}

func TestRepositoryAddResolve(t *testing.T) {
	repo := NewRepository()
	d := MustDescribe(reflect.TypeOf(fixtures.PersonA{}))
	if err := repo.Add(d); err != nil {
		t.Fatal(err)
	}
	if repo.Len() != 1 {
		t.Errorf("Len = %d", repo.Len())
	}

	byID, err := repo.Resolve(TypeRef{Identity: d.Identity})
	if err != nil {
		t.Fatalf("resolve by identity: %v", err)
	}
	if !Equal(byID, d) {
		t.Error("resolved description differs")
	}

	byName, err := repo.Resolve(TypeRef{Name: "PersonA"})
	if err != nil {
		t.Fatalf("resolve by name: %v", err)
	}
	if !Equal(byName, d) {
		t.Error("resolved-by-name description differs")
	}

	if _, err := repo.Resolve(TypeRef{Name: "Nope"}); !errors.Is(err, ErrNotFound) {
		t.Errorf("want ErrNotFound, got %v", err)
	}
}

func TestRepositoryRejectsBadAdds(t *testing.T) {
	repo := NewRepository()
	if err := repo.Add(nil); err == nil {
		t.Error("Add(nil) should fail")
	}
	if err := repo.Add(&TypeDescription{Name: "NoIdentity"}); err == nil {
		t.Error("Add without identity should fail")
	}
}

func TestRepositoryIsolation(t *testing.T) {
	repo := NewRepository()
	d := MustDescribe(reflect.TypeOf(fixtures.PersonA{}))
	if err := repo.Add(d); err != nil {
		t.Fatal(err)
	}
	d.Name = "MutatedAfterAdd"
	got, err := repo.Resolve(TypeRef{Identity: d.Identity})
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "PersonA" {
		t.Error("repository did not isolate stored description from caller mutation")
	}
}

func TestRepositoryContainsAndAll(t *testing.T) {
	repo := NewRepository()
	d := MustDescribe(reflect.TypeOf(fixtures.Address{}))
	_ = repo.Add(d)
	if !repo.Contains(d.Ref()) {
		t.Error("Contains should find added description")
	}
	if repo.Contains(TypeRef{Name: "Ghost"}) {
		t.Error("Contains found a ghost")
	}
	if all := repo.All(); len(all) != 1 || all[0].Name != "Address" {
		t.Errorf("All = %v", all)
	}
}

func TestResolverFunc(t *testing.T) {
	d := MustDescribe(reflect.TypeOf(fixtures.PersonA{}))
	calls := 0
	f := ResolverFunc(func(ref TypeRef) (*TypeDescription, error) {
		calls++
		return d, nil
	})
	got, err := f.Resolve(d.Ref())
	if err != nil || !Equal(got, d) || calls != 1 {
		t.Errorf("ResolverFunc: got=%v err=%v calls=%d", got, err, calls)
	}
}

func TestNormalizeSortsInterfacesAndCtors(t *testing.T) {
	d := &TypeDescription{
		Name:     "X",
		Identity: guid.Derive("x"),
		Interfaces: []TypeRef{
			{Name: "Zeta"}, {Name: "Alpha"},
		},
		Constructors: []Constructor{
			{Name: "NewX", Params: []TypeRef{{Name: "int"}, {Name: "int"}}},
			{Name: "NewX"},
			{Name: "MakeX"},
		},
	}
	d.Normalize()
	if d.Interfaces[0].Name != "Alpha" {
		t.Errorf("interfaces not sorted: %v", d.Interfaces)
	}
	if d.Constructors[0].Name != "MakeX" || len(d.Constructors[1].Params) != 0 {
		t.Errorf("constructors not sorted: %v", d.Constructors)
	}
}

func TestValidate(t *testing.T) {
	valid := MustDescribe(reflect.TypeOf(fixtures.Contact{}))
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid description rejected: %v", err)
	}
	id := guid.Derive("v")
	ref := TypeRef{Name: "int"}
	tests := []struct {
		name string
		d    *TypeDescription
	}{
		{"nil", nil},
		{"unidentified", &TypeDescription{Kind: KindStruct}},
		{"bad kind", &TypeDescription{Name: "X", Identity: id, Kind: KindInvalid}},
		{"pointer without elem", &TypeDescription{Name: "*X", Identity: id, Kind: KindPointer}},
		{"slice without elem", &TypeDescription{Name: "[]X", Identity: id, Kind: KindSlice}},
		{"array without elem", &TypeDescription{Name: "[2]X", Identity: id, Kind: KindArray, Len: 2}},
		{"array negative len", &TypeDescription{Name: "[2]X", Identity: id, Kind: KindArray, Elem: &ref, Len: -1}},
		{"map without key", &TypeDescription{Name: "map", Identity: id, Kind: KindMap, Elem: &ref}},
		{"unnamed field", &TypeDescription{Name: "X", Identity: id, Kind: KindStruct,
			Fields: []Field{{Type: ref}}}},
		{"duplicate field", &TypeDescription{Name: "X", Identity: id, Kind: KindStruct,
			Fields: []Field{{Name: "A", Type: ref}, {Name: "A", Type: ref}}}},
		{"untyped field", &TypeDescription{Name: "X", Identity: id, Kind: KindStruct,
			Fields: []Field{{Name: "A"}}}},
		{"unnamed method", &TypeDescription{Name: "X", Identity: id, Kind: KindStruct,
			Methods: []Method{{}}}},
		{"duplicate method", &TypeDescription{Name: "X", Identity: id, Kind: KindStruct,
			Methods: []Method{{Name: "M"}, {Name: "M"}}}},
		{"untyped param", &TypeDescription{Name: "X", Identity: id, Kind: KindStruct,
			Methods: []Method{{Name: "M", Params: []TypeRef{{}}}}}},
		{"untyped return", &TypeDescription{Name: "X", Identity: id, Kind: KindStruct,
			Methods: []Method{{Name: "M", Returns: []TypeRef{{}}}}}},
		{"unnamed ctor", &TypeDescription{Name: "X", Identity: id, Kind: KindStruct,
			Constructors: []Constructor{{}}}},
		{"untyped ctor param", &TypeDescription{Name: "X", Identity: id, Kind: KindStruct,
			Constructors: []Constructor{{Name: "New", Params: []TypeRef{{}}}}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.d.Validate(); !errors.Is(err, ErrInvalidDescription) {
				t.Errorf("want ErrInvalidDescription, got %v", err)
			}
		})
	}
}

func TestValidateAllDescribableFixtures(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeOf(fixtures.PersonA{}),
		reflect.TypeOf(&fixtures.PersonB{}),
		reflect.TypeOf([]fixtures.Address{}),
		reflect.TypeOf(map[string]*fixtures.Node{}),
		reflect.TypeOf([4]int{}),
		reflect.TypeOf((*fixtures.Person)(nil)).Elem(),
		reflect.TypeOf(3.14),
	} {
		d := MustDescribe(typ)
		if err := d.Validate(); err != nil {
			t.Errorf("Describe(%s) produced an invalid description: %v", typ, err)
		}
	}
}
