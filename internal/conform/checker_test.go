package conform

import (
	"reflect"
	"strings"
	"testing"

	"pti/internal/fixtures"
	"pti/internal/typedesc"
)

// newRepo registers bare descriptions for the fixture types (and
// their pointer forms) so nested references resolve, as they would on
// a peer that has already received those descriptions. Interface
// declarations are deliberately NOT attached here: tests exercising
// aspect (iii) and explicit conformance build their own descriptions.
func newRepo(t *testing.T) *typedesc.Repository {
	t.Helper()
	repo := typedesc.NewRepository()
	person := reflect.TypeOf((*fixtures.Person)(nil)).Elem()
	named := reflect.TypeOf((*fixtures.Named)(nil)).Elem()
	for _, typ := range []reflect.Type{
		reflect.TypeOf(fixtures.PersonA{}),
		reflect.TypeOf(fixtures.PersonB{}),
		reflect.TypeOf(fixtures.Employee{}),
		reflect.TypeOf(fixtures.Address{}),
		reflect.TypeOf(fixtures.Contact{}),
		reflect.TypeOf(fixtures.Node{}),
		reflect.TypeOf(fixtures.StockQuoteA{}),
		reflect.TypeOf(fixtures.StockQuoteB{}),
		reflect.TypeOf(fixtures.Swapped{}),
		reflect.TypeOf(fixtures.Swappee{}),
		person,
		named,
	} {
		d, err := typedesc.Describe(typ)
		if err != nil {
			t.Fatal(err)
		}
		if err := repo.Add(d); err != nil {
			t.Fatal(err)
		}
		if typ.Kind() == reflect.Struct {
			pd, err := typedesc.Describe(reflect.PtrTo(typ))
			if err != nil {
				t.Fatal(err)
			}
			if err := repo.Add(pd); err != nil {
				t.Fatal(err)
			}
		}
	}
	return repo
}

// EmployeeB embeds PersonB and mirrors Employee's own members; under
// Relaxed(1) its superclass conforms to Employee's (PersonA).
type EmployeeB struct {
	fixtures.PersonB
	Company string
	Salary  float64
}

// GetCompany returns the employing company.
func (e *EmployeeB) GetCompany() string { return e.Company }

// Employee2 mirrors Employee's shape without the embedded superclass.
type Employee2 struct {
	Company string
	Salary  float64
}

// GetCompany returns the employing company.
func (e *Employee2) GetCompany() string { return e.Company }

func mustResolve(t *testing.T, repo *typedesc.Repository, name string) *typedesc.TypeDescription {
	t.Helper()
	d, err := repo.Resolve(typedesc.TypeRef{Name: name})
	if err != nil {
		t.Fatalf("resolve %s: %v", name, err)
	}
	return d
}

func check(t *testing.T, c *Checker, cand, exp *typedesc.TypeDescription) *Result {
	t.Helper()
	r, err := c.Check(cand, exp)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestEquivalenceConforms(t *testing.T) {
	repo := newRepo(t)
	c := New(repo)
	d := mustResolve(t, repo, "PersonA")
	r := check(t, c, d, d)
	if !r.Conformant {
		t.Fatalf("PersonA should conform to itself: %s", r.Reason)
	}
	if !r.Mapping.Identity {
		t.Error("self-conformance should be an identity mapping")
	}
	if !strings.Contains(r.Reason, "equivalent") {
		t.Errorf("Reason = %q", r.Reason)
	}
}

func TestExplicitConformanceViaInterface(t *testing.T) {
	repo := newRepo(t)
	person := reflect.TypeOf((*fixtures.Person)(nil)).Elem()
	cand := typedesc.MustDescribe(reflect.TypeOf(fixtures.PersonA{}), typedesc.WithInterfaces(person))
	c := New(repo)
	r := check(t, c, cand, mustResolve(t, repo, "Person"))
	if !r.Conformant {
		t.Fatalf("PersonA declares Person: %s", r.Reason)
	}
	if !strings.Contains(r.Reason, "explicit") {
		t.Errorf("Reason = %q, want explicit conformance", r.Reason)
	}
}

func TestExplicitConformanceViaSuperChain(t *testing.T) {
	repo := newRepo(t)
	c := New(repo)
	r := check(t, c, mustResolve(t, repo, "Employee"), mustResolve(t, repo, "PersonA"))
	if !r.Conformant {
		t.Fatalf("Employee embeds PersonA: %s", r.Reason)
	}
	if !strings.Contains(r.Reason, "explicit") {
		t.Errorf("Reason = %q", r.Reason)
	}
}

func TestStrictRejectsPersonBvsPersonA(t *testing.T) {
	repo := newRepo(t)
	c := New(repo) // strict: LD 0 on names
	r := check(t, c, mustResolve(t, repo, "PersonB"), mustResolve(t, repo, "PersonA"))
	if r.Conformant {
		t.Fatal("strict policy must reject PersonB vs PersonA (name distance 1)")
	}
	if !strings.Contains(r.Reason, "name") {
		t.Errorf("Reason = %q, want a name failure", r.Reason)
	}
}

func TestRelaxedAcceptsPersonBvsPersonA(t *testing.T) {
	repo := newRepo(t)
	c := New(repo, WithPolicy(Relaxed(1)))
	r := check(t, c, mustResolve(t, repo, "PersonB"), mustResolve(t, repo, "PersonA"))
	if !r.Conformant {
		t.Fatalf("PersonB should implicitly conform to PersonA under Relaxed(1): %s", r.Reason)
	}
	m := r.Mapping
	if m.Identity {
		t.Fatal("implicit conformance should carry a real mapping")
	}
	wantFields := map[string]string{"Name": "PersonName", "Age": "PersonAge"}
	for _, fm := range m.Fields {
		if wantFields[fm.Expected] != fm.Candidate {
			t.Errorf("field %s mapped to %s", fm.Expected, fm.Candidate)
		}
		delete(wantFields, fm.Expected)
	}
	if len(wantFields) != 0 {
		t.Errorf("unmapped fields: %v", wantFields)
	}
	wantMethods := map[string]string{
		"GetName": "GetPersonName", "SetName": "SetPersonName",
		"GetAge": "GetPersonAge", "SetAge": "SetPersonAge",
	}
	for _, mm := range m.Methods {
		if wantMethods[mm.Expected] != mm.Candidate {
			t.Errorf("method %s mapped to %s", mm.Expected, mm.Candidate)
		}
		if !mm.IsIdentityPerm() {
			t.Errorf("method %s should have identity permutation, got %v", mm.Expected, mm.Perm)
		}
		delete(wantMethods, mm.Expected)
	}
	if len(wantMethods) != 0 {
		t.Errorf("unmapped methods: %v", wantMethods)
	}
}

func TestRelaxedIsDirectional(t *testing.T) {
	// PersonA ≤is PersonB must also hold here (members are related
	// by token subset in both directions), but a candidate missing a
	// member must fail.
	repo := newRepo(t)
	c := New(repo, WithPolicy(Relaxed(1)))
	r := check(t, c, mustResolve(t, repo, "PersonA"), mustResolve(t, repo, "PersonB"))
	if !r.Conformant {
		t.Fatalf("PersonA vs PersonB: %s", r.Reason)
	}

	// Address has none of PersonA's members.
	r = check(t, c, mustResolve(t, repo, "Address"), mustResolve(t, repo, "PersonA"))
	if r.Conformant {
		t.Fatal("Address must not conform to PersonA")
	}
}

func TestStockQuotesConform(t *testing.T) {
	repo := newRepo(t)
	c := New(repo, WithPolicy(Relaxed(1)))
	r := check(t, c, mustResolve(t, repo, "StockQuoteB"), mustResolve(t, repo, "StockQuoteA"))
	if !r.Conformant {
		t.Fatalf("StockQuoteB vs StockQuoteA: %s", r.Reason)
	}
	mm, ok := r.Mapping.MethodFor("GetSymbol")
	if !ok || mm.Candidate != "GetStockSymbol" {
		t.Errorf("GetSymbol mapping = %+v", mm)
	}
	// Field declaration order differs between the two types; the
	// mapping must follow names, not positions.
	fm, ok := r.Mapping.FieldFor("Price")
	if !ok || fm.Candidate != "StockPrice" {
		t.Errorf("Price mapping = %+v", fm)
	}
}

func TestStructSatisfiesInterfaceImplicitly(t *testing.T) {
	// PersonB does NOT declare fixtures.Person, and its method names
	// differ — only the relaxed implicit rule can unify them.
	repo := newRepo(t)
	c := New(repo, WithPolicy(Relaxed(6)))
	r := check(t, c, mustResolve(t, repo, "PersonB"), mustResolve(t, repo, "Person"))
	if !r.Conformant {
		t.Fatalf("PersonB vs Person interface: %s", r.Reason)
	}
	mm, ok := r.Mapping.MethodFor("GetName")
	if !ok || mm.Candidate != "GetPersonName" {
		t.Errorf("GetName mapping = %+v", mm)
	}
}

func TestArgumentPermutation(t *testing.T) {
	repo := newRepo(t)
	c := New(repo, WithPolicy(Relaxed(2)))
	r := check(t, c, mustResolve(t, repo, "Swapped"), mustResolve(t, repo, "Swappee"))
	if !r.Conformant {
		t.Fatalf("Swapped vs Swappee: %s", r.Reason)
	}
	mm, ok := r.Mapping.MethodFor("Combine")
	if !ok {
		t.Fatal("no Combine mapping")
	}
	// Swappee.Combine(count int, label string); Swapped.Combine(label
	// string, count int): expected arg 0 (int) lands in candidate
	// slot 1, expected arg 1 (string) in slot 0.
	if len(mm.Perm) != 2 || mm.Perm[0] != 1 || mm.Perm[1] != 0 {
		t.Errorf("Perm = %v, want [1 0]", mm.Perm)
	}
}

func TestNoPermutationsPolicy(t *testing.T) {
	repo := newRepo(t)
	p := Relaxed(2)
	p.NoPermutations = true
	c := New(repo, WithPolicy(p))
	r := check(t, c, mustResolve(t, repo, "Swapped"), mustResolve(t, repo, "Swappee"))
	if r.Conformant {
		t.Fatal("NoPermutations must reject the swapped signature")
	}
}

func TestPermutationApply(t *testing.T) {
	mm := MethodMapping{Expected: "Combine", Candidate: "Combine", Perm: []int{1, 0}}
	out, err := mm.Apply([]interface{}{42, "label"})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != "label" || out[1] != 42 {
		t.Errorf("Apply = %v", out)
	}
	if _, err := mm.Apply([]interface{}{1}); err == nil {
		t.Error("arity mismatch should error")
	}
}

func TestPrimitivesNeverFuzzyMatch(t *testing.T) {
	// Even an absurdly relaxed policy must not see int ≤is uint.
	type IntBox struct{ V int }
	type UintBox struct{ V uint }
	repo := typedesc.NewRepository()
	di := typedesc.MustDescribe(reflect.TypeOf(IntBox{}))
	du := typedesc.MustDescribe(reflect.TypeOf(UintBox{}))
	c := New(repo, WithPolicy(Relaxed(10)))
	r, err := c.Check(di, du)
	if err != nil {
		t.Fatal(err)
	}
	if r.Conformant {
		t.Fatal("int field must not conform to uint field")
	}
}

func TestRecursiveTypesTerminate(t *testing.T) {
	type NodeX struct {
		Value int
		Next  *NodeX
	}
	repo := newRepo(t)
	for _, typ := range []reflect.Type{reflect.TypeOf(NodeX{}), reflect.TypeOf(&NodeX{})} {
		if err := repo.Add(typedesc.MustDescribe(typ)); err != nil {
			t.Fatal(err)
		}
	}
	c := New(repo, WithPolicy(Relaxed(1)))
	r := check(t, c, mustResolve(t, repo, "NodeX"), mustResolve(t, repo, "Node"))
	if !r.Conformant {
		t.Fatalf("recursive NodeX vs Node: %s", r.Reason)
	}
	fm, ok := r.Mapping.FieldFor("Next")
	if !ok || fm.Candidate != "Next" {
		t.Errorf("Next mapping = %+v", fm)
	}
}

func TestUnresolvedNestedFallsBackToNames(t *testing.T) {
	// An empty resolver forces the pragmatic name fallback of
	// Section 5.2 for the field types.
	empty := typedesc.NewRepository()
	da := typedesc.MustDescribe(reflect.TypeOf(fixtures.PersonA{}))
	db := typedesc.MustDescribe(reflect.TypeOf(fixtures.PersonB{}))
	c := New(empty, WithPolicy(Relaxed(1)))
	r, err := c.Check(db, da)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Conformant {
		t.Fatalf("name fallback should succeed: %s", r.Reason)
	}
}

func TestNilResolverStillWorks(t *testing.T) {
	da := typedesc.MustDescribe(reflect.TypeOf(fixtures.PersonA{}))
	c := New(nil, WithPolicy(Relaxed(1)))
	r, err := c.Check(da, da)
	if err != nil || !r.Conformant {
		t.Fatalf("self check with nil resolver: %v %v", r, err)
	}
}

func TestCheckNilDescriptions(t *testing.T) {
	c := New(nil)
	if _, err := c.Check(nil, nil); err == nil {
		t.Error("nil descriptions should error")
	}
}

func TestCompositeKinds(t *testing.T) {
	repo := newRepo(t)
	add := func(typ reflect.Type) *typedesc.TypeDescription {
		d := typedesc.MustDescribe(typ)
		if err := repo.Add(d); err != nil {
			t.Fatal(err)
		}
		return d
	}
	slicePA := add(reflect.TypeOf([]fixtures.PersonA{}))
	slicePB := add(reflect.TypeOf([]fixtures.PersonB{}))
	mapPA := add(reflect.TypeOf(map[string]fixtures.PersonA{}))
	mapPB := add(reflect.TypeOf(map[string]fixtures.PersonB{}))
	mapIntPA := add(reflect.TypeOf(map[int]fixtures.PersonA{}))
	arr3 := add(reflect.TypeOf([3]int{}))
	arr4 := add(reflect.TypeOf([4]int{}))

	c := New(repo, WithPolicy(Relaxed(1)))

	r := check(t, c, slicePB, slicePA)
	if !r.Conformant {
		t.Errorf("[]PersonB vs []PersonA: %s", r.Reason)
	}
	r = check(t, c, mapPB, mapPA)
	if !r.Conformant {
		t.Errorf("map[string]PersonB vs map[string]PersonA: %s", r.Reason)
	}
	r = check(t, c, mapIntPA, mapPA)
	if r.Conformant {
		t.Error("map[int]PersonA must not conform to map[string]PersonA")
	}
	r = check(t, c, arr3, arr4)
	if r.Conformant {
		t.Error("[3]int must not conform to [4]int")
	}
	r = check(t, c, slicePA, mapPA)
	if r.Conformant {
		t.Error("slice must not conform to map")
	}
}

func TestPointerStructCompatibility(t *testing.T) {
	repo := newRepo(t)
	c := New(repo, WithPolicy(Relaxed(1)))
	ptrB, err := repo.Resolve(typedesc.TypeRef{Name: "*PersonB"})
	if err != nil {
		t.Fatal(err)
	}
	r := check(t, c, ptrB, mustResolve(t, repo, "PersonA"))
	if !r.Conformant {
		t.Errorf("*PersonB vs PersonA: %s", r.Reason)
	}
}

func TestSupertypeAspect(t *testing.T) {
	repo := newRepo(t)
	if err := repo.Add(typedesc.MustDescribe(reflect.TypeOf(EmployeeB{}))); err != nil {
		t.Fatal(err)
	}
	c := New(repo, WithPolicy(Relaxed(1)))
	r := check(t, c, mustResolve(t, repo, "EmployeeB"), mustResolve(t, repo, "Employee"))
	if !r.Conformant {
		t.Fatalf("EmployeeB vs Employee: %s", r.Reason)
	}

	// A type without a superclass cannot conform to one that has
	// one.
	if err := repo.Add(typedesc.MustDescribe(reflect.TypeOf(Employee2{}))); err != nil {
		t.Fatal(err)
	}
	r = check(t, c, mustResolve(t, repo, "Employee2"), mustResolve(t, repo, "Employee"))
	if r.Conformant {
		t.Fatal("Employee2 has no superclass and must not conform to Employee")
	}
	if !strings.Contains(r.Reason, "superclass") {
		t.Errorf("Reason = %q", r.Reason)
	}
}

func TestInterfaceAspect(t *testing.T) {
	// Expected type declares an interface; candidate declares none.
	repo := newRepo(t)
	person := reflect.TypeOf((*fixtures.Person)(nil)).Elem()
	withIface := typedesc.MustDescribe(reflect.TypeOf(fixtures.PersonA{}), typedesc.WithInterfaces(person))
	bare := typedesc.MustDescribe(reflect.TypeOf(fixtures.PersonB{}))
	c := New(repo, WithPolicy(Relaxed(1)))
	r, err := c.Check(bare, withIface)
	if err != nil {
		t.Fatal(err)
	}
	if r.Conformant {
		t.Fatal("candidate without the expected interface must fail aspect (iii)")
	}
	if !strings.Contains(r.Reason, "interface") {
		t.Errorf("Reason = %q", r.Reason)
	}
}

func TestConstructorAspect(t *testing.T) {
	repo := newRepo(t)
	withCtor := typedesc.MustDescribe(reflect.TypeOf(fixtures.PersonA{}),
		typedesc.WithConstructor("NewPersonA", fixtures.NewPersonA))
	candWithCtor := typedesc.MustDescribe(reflect.TypeOf(fixtures.PersonB{}),
		typedesc.WithConstructor("NewPersonB", fixtures.NewPersonB))
	candNoCtor := typedesc.MustDescribe(reflect.TypeOf(fixtures.PersonB{}))

	c := New(repo, WithPolicy(Relaxed(1)))
	r, err := c.Check(candWithCtor, withCtor)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Conformant {
		t.Fatalf("ctor-to-ctor: %s", r.Reason)
	}
	if len(r.Mapping.Ctors) != 1 || r.Mapping.Ctors[0].Candidate != "NewPersonB" {
		t.Errorf("ctor mapping = %+v", r.Mapping.Ctors)
	}

	r, err = c.Check(candNoCtor, withCtor)
	if err != nil {
		t.Fatal(err)
	}
	if r.Conformant {
		t.Fatal("candidate without constructors must fail aspect (v)")
	}
}

func TestOverridesPinAmbiguousMembers(t *testing.T) {
	// Wanteds has two int fields that both fuzzy-match Value under a
	// loose distance; the override pins the second.
	type Wanteds struct{ A, B int }
	type Wanted struct{ Value int }
	repo := typedesc.NewRepository()
	da := typedesc.MustDescribe(reflect.TypeOf(Wanteds{}))
	dw := typedesc.MustDescribe(reflect.TypeOf(Wanted{}))

	// Without overrides, Relaxed(5) maps Value to the first
	// name-conformant field (A: distance 5).
	c := New(repo, WithPolicy(Relaxed(5)))
	r, err := c.Check(da, dw)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Conformant {
		t.Fatalf("ambiguous check failed: %s", r.Reason)
	}
	fm, _ := r.Mapping.FieldFor("Value")
	if fm.Candidate != "A" {
		t.Errorf("default pick = %s, want deterministic first match A", fm.Candidate)
	}

	pinned := New(repo, WithPolicy(Relaxed(5)),
		WithOverrides(Override{Kind: "field", Expected: "Value", Candidate: "B"}))
	r, err = pinned.Check(da, dw)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Conformant {
		t.Fatalf("pinned check failed: %s", r.Reason)
	}
	fm, _ = r.Mapping.FieldFor("Value")
	if fm.Candidate != "B" {
		t.Errorf("pinned pick = %s, want B", fm.Candidate)
	}
}

func TestDepthGuard(t *testing.T) {
	repo := newRepo(t)
	c := New(repo, WithPolicy(Policy{TypeNameDistance: 1, MemberNameDistance: 1, TokenSubset: true, MaxDepth: 1}))
	r := check(t, c, mustResolve(t, repo, "PersonB"), mustResolve(t, repo, "PersonA"))
	// Depth 1 is enough for the top level but not for nested field
	// resolution; either outcome must be reached without a stack
	// overflow, and a failure must say why.
	if !r.Conformant && !strings.Contains(r.Reason, "depth") && !strings.Contains(r.Reason, "conform") {
		t.Errorf("Reason = %q", r.Reason)
	}
}

func TestCheckRefs(t *testing.T) {
	repo := newRepo(t)
	c := New(repo, WithPolicy(Relaxed(1)))
	bRef := typedesc.TypeRef{Name: "PersonB"}
	aRef := typedesc.TypeRef{Name: "PersonA"}
	r, err := c.CheckRefs(bRef, aRef)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Conformant {
		t.Fatalf("CheckRefs: %s", r.Reason)
	}
	if _, err := c.CheckRefs(typedesc.TypeRef{Name: "Ghost"}, aRef); err == nil {
		t.Error("unresolvable candidate should error")
	}
	if _, err := c.CheckRefs(bRef, typedesc.TypeRef{Name: "Ghost"}); err == nil {
		t.Error("unresolvable expected should error")
	}
}

func TestCacheTransparency(t *testing.T) {
	repo := newRepo(t)
	cache := NewCache()
	cached := New(repo, WithPolicy(Relaxed(1)), WithCache(cache))
	plain := New(repo, WithPolicy(Relaxed(1)))

	pairs := [][2]string{
		{"PersonB", "PersonA"},
		{"PersonA", "PersonB"},
		{"Address", "PersonA"},
		{"StockQuoteB", "StockQuoteA"},
		{"Employee", "PersonA"},
	}
	for _, pair := range pairs {
		cand, exp := mustResolve(t, repo, pair[0]), mustResolve(t, repo, pair[1])
		want := check(t, plain, cand, exp)
		got1 := check(t, cached, cand, exp)
		got2 := check(t, cached, cand, exp) // served from cache
		if got1.Conformant != want.Conformant || got2.Conformant != want.Conformant {
			t.Errorf("%s vs %s: cache changed the answer", pair[0], pair[1])
		}
	}
	hits, misses := cache.Stats()
	if hits != uint64(len(pairs)) || misses != uint64(len(pairs)) {
		t.Errorf("cache stats = %d hits, %d misses; want %d, %d", hits, misses, len(pairs), len(pairs))
	}
	if cache.Len() != len(pairs) {
		t.Errorf("cache Len = %d", cache.Len())
	}
	cache.Reset()
	if cache.Len() != 0 {
		t.Error("Reset did not clear")
	}
}

func TestConformanceReflexiveProperty(t *testing.T) {
	// Every described fixture type conforms to itself under every
	// policy (equivalence short-circuit).
	repo := newRepo(t)
	for _, pol := range []Policy{Strict(), Relaxed(1), {NoPermutations: true}} {
		c := New(repo, WithPolicy(pol))
		for _, d := range repo.All() {
			r, err := c.Check(d, d)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Conformant {
				t.Errorf("%s not reflexive under %+v: %s", d.Name, pol, r.Reason)
			}
		}
	}
}

func TestMappingPermutationsAreBijections(t *testing.T) {
	repo := newRepo(t)
	c := New(repo, WithPolicy(Relaxed(2)))
	for _, pair := range [][2]string{
		{"PersonB", "PersonA"}, {"Swapped", "Swappee"}, {"StockQuoteB", "StockQuoteA"},
	} {
		r := check(t, c, mustResolve(t, repo, pair[0]), mustResolve(t, repo, pair[1]))
		if !r.Conformant {
			t.Fatalf("%v: %s", pair, r.Reason)
		}
		for _, mm := range r.Mapping.Methods {
			seen := make(map[int]bool, len(mm.Perm))
			for _, p := range mm.Perm {
				if p < 0 || p >= len(mm.Perm) || seen[p] {
					t.Errorf("%s->%s perm %v is not a bijection", mm.Expected, mm.Candidate, mm.Perm)
					break
				}
				seen[p] = true
			}
		}
	}
}

func TestMappingStringAndAccessors(t *testing.T) {
	repo := newRepo(t)
	c := New(repo, WithPolicy(Relaxed(1)))
	r := check(t, c, mustResolve(t, repo, "PersonB"), mustResolve(t, repo, "PersonA"))
	s := r.Mapping.String()
	if !strings.Contains(s, "PersonB") || !strings.Contains(s, "GetName->GetPersonName") {
		t.Errorf("Mapping.String = %q", s)
	}
	if _, ok := r.Mapping.MethodFor("NoSuch"); ok {
		t.Error("MethodFor should miss unknown methods")
	}
	if _, ok := r.Mapping.FieldFor("NoSuch"); ok {
		t.Error("FieldFor should miss unknown fields")
	}
	var nilMapping *Mapping
	if _, ok := nilMapping.MethodFor("X"); ok {
		t.Error("nil mapping should miss")
	}
	if nilMapping.String() != "<nil mapping>" {
		t.Error("nil mapping String")
	}
	idMapping := &Mapping{Identity: true}
	if mm, ok := idMapping.MethodFor("Anything"); !ok || mm.Candidate != "Anything" {
		t.Error("identity mapping should map any method to itself")
	}
	if fm, ok := idMapping.FieldFor("F"); !ok || fm.Candidate != "F" {
		t.Error("identity mapping should map any field to itself")
	}
}

func TestIgnoreConstructorsPolicy(t *testing.T) {
	repo := newRepo(t)
	withCtor := typedesc.MustDescribe(reflect.TypeOf(fixtures.PersonA{}),
		typedesc.WithConstructor("NewPersonA", fixtures.NewPersonA))
	candNoCtor := typedesc.MustDescribe(reflect.TypeOf(fixtures.PersonB{}))

	p := Relaxed(1)
	p.IgnoreConstructors = true
	c := New(repo, WithPolicy(p))
	r, err := c.Check(candNoCtor, withCtor)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Conformant {
		t.Fatalf("IgnoreConstructors should skip aspect (v): %s", r.Reason)
	}
	if len(r.Mapping.Ctors) != 0 {
		t.Errorf("no ctor mappings expected, got %v", r.Mapping.Ctors)
	}
}

// TestRelaxedNameRuleIsNotTransitive documents a known limitation the
// paper concedes ("we cannot ensure complete conformance for all the
// possible cases"): with a Levenshtein threshold, conformance is not
// transitive. AB ≤is ABC and ABC ≤is ABCD under Relaxed(1), but
// AB ≤is ABCD fails (distance 2).
func TestRelaxedNameRuleIsNotTransitive(t *testing.T) {
	mk := func(name string) *typedesc.TypeDescription {
		d := &typedesc.TypeDescription{Name: name, Kind: typedesc.KindStruct}
		d.Identity = typedesc.MustDescribe(reflect.TypeOf(struct{}{})).Identity
		d.Identity[0] ^= byte(len(name)) // distinct identities
		return d
	}
	ab, abc, abcd := mk("AB"), mk("ABC"), mk("ABCD")
	c := New(nil, WithPolicy(Policy{TypeNameDistance: 1, MemberNameDistance: 1}))

	r1 := check(t, c, ab, abc)
	r2 := check(t, c, abc, abcd)
	r3 := check(t, c, ab, abcd)
	if !r1.Conformant || !r2.Conformant {
		t.Fatalf("premises failed: %v %v", r1.Reason, r2.Reason)
	}
	if r3.Conformant {
		t.Fatal("AB vs ABCD should fail under distance 1 — if this now passes, " +
			"the non-transitivity documentation is stale")
	}
}

// BestPick has two fields that both conform to Wanted.Value under a
// loose distance; BestMatch must pick the closer name: "Val" is
// distance 2 from "Value", "Valu" is distance 1.
type BestPick struct {
	Val  int
	Valu int
}

func TestBestMatchPolicy(t *testing.T) {
	type Wanted struct{ Value int }
	dw := typedesc.MustDescribe(reflect.TypeOf(Wanted{}))
	dc := typedesc.MustDescribe(reflect.TypeOf(BestPick{}))
	dc.Name = "Wanted2" // keep the type-name aspect out of the way

	// Declaration order picks Val (first conformant under distance 5).
	ordered := New(nil, WithPolicy(Policy{TypeNameDistance: 1, MemberNameDistance: 5}))
	r, err := ordered.Check(dc, dw)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Conformant {
		t.Fatalf("ordered: %s", r.Reason)
	}
	fm, _ := r.Mapping.FieldFor("Value")
	if fm.Candidate != "Val" {
		t.Errorf("ordered pick = %s, want Val", fm.Candidate)
	}

	// BestMatch picks the minimal-distance name: "velum" (2) beats
	// "val" (3).
	best := New(nil, WithPolicy(Policy{TypeNameDistance: 1, MemberNameDistance: 5, BestMatch: true}))
	r, err = best.Check(dc, dw)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Conformant {
		t.Fatalf("best: %s", r.Reason)
	}
	fm, _ = r.Mapping.FieldFor("Value")
	if fm.Candidate != "Valu" {
		t.Errorf("best pick = %s, want Valu", fm.Candidate)
	}
}

// ScoredSvc exposes two methods both conformant to Do(); BestMatch
// must pick the closer name.
type ScoredSvc struct{}

// Doo is distance 1 from Do.
func (ScoredSvc) Doo() {}

// Dot is also distance 1 — declared later, so order picks Doo either
// way; the scored pick is stable too (ties keep the first).
func (ScoredSvc) Dogs() {}

func TestBestMatchMethods(t *testing.T) {
	type iface struct{}
	exp := &typedesc.TypeDescription{
		Name: "ScoredSvd", Kind: typedesc.KindStruct,
		Methods: []typedesc.Method{{Name: "Do"}},
	}
	_ = iface{}
	cand := typedesc.MustDescribe(reflect.TypeOf(ScoredSvc{}))
	best := New(nil, WithPolicy(Policy{TypeNameDistance: 1, MemberNameDistance: 2, BestMatch: true}))
	r, err := best.Check(cand, exp)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Conformant {
		t.Fatalf("best methods: %s", r.Reason)
	}
	mm, _ := r.Mapping.MethodFor("Do")
	if mm.Candidate != "Doo" {
		t.Errorf("method pick = %s, want Doo (distance 1 beats Dogs' 2)", mm.Candidate)
	}
}

// TestColdCheckAllocs pins the cost of one uncached check of the
// BenchmarkConformanceCheck pair (PersonB against PersonA, Relaxed(1)):
// the name rules compare in place and the cycle bookkeeping keys on
// identities, so what is left is the result, its mapping and the
// matching state.
func TestColdCheckAllocs(t *testing.T) {
	cd := typedesc.MustDescribe(reflect.TypeOf(fixtures.PersonB{}))
	ed := typedesc.MustDescribe(reflect.TypeOf(fixtures.PersonA{}))
	checker := New(typedesc.NewRepository(), WithPolicy(Relaxed(1)))
	allocs := testing.AllocsPerRun(50, func() {
		if r, err := checker.Check(cd, ed); err != nil || !r.Conformant {
			t.Fatalf("check failed: %v %v", r, err)
		}
	})
	if allocs > 16 {
		t.Errorf("uncached check allocates %.0f, want at most 16", allocs)
	}
}
