package typedesc

import (
	"reflect"
	"strings"
	"testing"

	"pti/internal/fixtures"
	"pti/internal/guid"
)

func personAType() reflect.Type { return reflect.TypeOf(fixtures.PersonA{}) }

func TestDescribePersonA(t *testing.T) {
	d, err := Describe(personAType(), WithConstructor("NewPersonA", fixtures.NewPersonA))
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "PersonA" {
		t.Errorf("Name = %q, want PersonA", d.Name)
	}
	if d.Kind != KindStruct {
		t.Errorf("Kind = %v, want struct", d.Kind)
	}
	if d.Identity.IsNil() {
		t.Error("Identity is nil")
	}
	if len(d.Fields) != 2 {
		t.Fatalf("Fields = %v, want 2 fields", d.Fields)
	}
	if d.Fields[0].Name != "Name" || d.Fields[0].Type.Name != "string" {
		t.Errorf("Fields[0] = %+v", d.Fields[0])
	}
	if d.Fields[1].Name != "Age" || d.Fields[1].Type.Name != "int" {
		t.Errorf("Fields[1] = %+v", d.Fields[1])
	}
	wantMethods := map[string]bool{"GetName": true, "SetName": true, "GetAge": true, "SetAge": true}
	if len(d.Methods) != len(wantMethods) {
		t.Fatalf("Methods = %v, want 4", d.Methods)
	}
	for _, m := range d.Methods {
		if !wantMethods[m.Name] {
			t.Errorf("unexpected method %s", m.Name)
		}
	}
	getName, ok := d.MethodByName("GetName")
	if !ok || len(getName.Params) != 0 || len(getName.Returns) != 1 || getName.Returns[0].Name != "string" {
		t.Errorf("GetName = %+v", getName)
	}
	setName, ok := d.MethodByName("SetName")
	if !ok || len(setName.Params) != 1 || setName.Params[0].Name != "string" || len(setName.Returns) != 0 {
		t.Errorf("SetName = %+v", setName)
	}
	if len(d.Constructors) != 1 {
		t.Fatalf("Constructors = %v", d.Constructors)
	}
	ctor := d.Constructors[0]
	if ctor.Name != "NewPersonA" || len(ctor.Params) != 2 ||
		ctor.Params[0].Name != "string" || ctor.Params[1].Name != "int" {
		t.Errorf("ctor = %+v", ctor)
	}
}

func TestDescribeInterfaces(t *testing.T) {
	named := reflect.TypeOf((*fixtures.Named)(nil)).Elem()
	person := reflect.TypeOf((*fixtures.Person)(nil)).Elem()
	d, err := Describe(personAType(), WithInterfaces(named, person))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Interfaces) != 2 {
		t.Fatalf("Interfaces = %v, want 2", d.Interfaces)
	}
	// Normalize sorts by name: Named < Person.
	if d.Interfaces[0].Name != "Named" || d.Interfaces[1].Name != "Person" {
		t.Errorf("Interfaces = %v", d.Interfaces)
	}
}

func TestDescribeSkipsUnimplementedInterfaces(t *testing.T) {
	person := reflect.TypeOf((*fixtures.Person)(nil)).Elem()
	d, err := Describe(reflect.TypeOf(fixtures.PersonB{}), WithInterfaces(person))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Interfaces) != 0 {
		t.Errorf("PersonB should not implement Person; got %v", d.Interfaces)
	}
}

func TestDescribeEmployeeSuper(t *testing.T) {
	d, err := Describe(reflect.TypeOf(fixtures.Employee{}))
	if err != nil {
		t.Fatal(err)
	}
	if d.Super == nil || d.Super.Name != "PersonA" {
		t.Fatalf("Super = %v, want PersonA", d.Super)
	}
	// Promoted methods (GetName etc.) belong to the superclass
	// description, not Employee's own.
	if _, ok := d.MethodByName("GetName"); ok {
		t.Error("Employee description should not repeat promoted GetName")
	}
	if _, ok := d.MethodByName("GetCompany"); !ok {
		t.Error("Employee description missing own method GetCompany")
	}
	// The embedded field is not an ordinary field.
	for _, f := range d.Fields {
		if f.Name == "PersonA" {
			t.Error("embedded PersonA leaked into Fields")
		}
	}
}

func TestDescribeInterfaceType(t *testing.T) {
	person := reflect.TypeOf((*fixtures.Person)(nil)).Elem()
	d, err := Describe(person)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != KindInterface {
		t.Errorf("Kind = %v", d.Kind)
	}
	if len(d.Methods) != 2 {
		t.Fatalf("Methods = %v", d.Methods)
	}
	if _, ok := d.MethodByName("GetName"); !ok {
		t.Error("missing GetName")
	}
	if _, ok := d.MethodByName("SetName"); !ok {
		t.Error("missing SetName")
	}
}

func TestDescribeCompositeKinds(t *testing.T) {
	tests := []struct {
		name     string
		typ      reflect.Type
		wantKind Kind
		wantName string
	}{
		{"slice", reflect.TypeOf([]int{}), KindSlice, "[]int"},
		{"array", reflect.TypeOf([3]string{}), KindArray, "[3]string"},
		{"map", reflect.TypeOf(map[string]int{}), KindMap, "map[string]int"},
		{"pointer", reflect.TypeOf(&fixtures.PersonA{}), KindPointer, "*PersonA"},
		{"primitive", reflect.TypeOf(42), KindPrimitive, "int"},
		{"string", reflect.TypeOf(""), KindPrimitive, "string"},
		{"func", reflect.TypeOf(func(int) string { return "" }), KindFunc, "func(int) (string)"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d, err := Describe(tt.typ)
			if err != nil {
				t.Fatal(err)
			}
			if d.Kind != tt.wantKind {
				t.Errorf("Kind = %v, want %v", d.Kind, tt.wantKind)
			}
			if d.Name != tt.wantName {
				t.Errorf("Name = %q, want %q", d.Name, tt.wantName)
			}
		})
	}
}

func TestDescribeMapHasKeyAndElem(t *testing.T) {
	d := MustDescribe(reflect.TypeOf(map[string]*fixtures.PersonA{}))
	if d.Key == nil || d.Key.Name != "string" {
		t.Errorf("Key = %v", d.Key)
	}
	if d.Elem == nil || d.Elem.Name != "*PersonA" {
		t.Errorf("Elem = %v", d.Elem)
	}
}

func TestDescribeArrayLen(t *testing.T) {
	d := MustDescribe(reflect.TypeOf([5]int{}))
	if d.Len != 5 {
		t.Errorf("Len = %d, want 5", d.Len)
	}
}

func TestDescribeUnsupported(t *testing.T) {
	if _, err := Describe(reflect.TypeOf(make(chan int))); err == nil {
		t.Error("chan should be unsupported")
	}
	if _, err := Describe(nil); err == nil {
		t.Error("nil should be unsupported")
	}
}

func TestDescribeBadConstructor(t *testing.T) {
	tests := []struct {
		name string
		fn   interface{}
	}{
		{"not a func", 42},
		{"no returns", func(string) {}},
		{"wrong return", func() *fixtures.PersonB { return nil }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Describe(personAType(), WithConstructor("New", tt.fn)); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestStructuralIdentityDeterministic(t *testing.T) {
	d1 := MustDescribe(personAType())
	d2 := MustDescribe(personAType())
	if d1.Identity != d2.Identity {
		t.Error("identity not deterministic for the same type")
	}
	d3 := MustDescribe(reflect.TypeOf(fixtures.PersonB{}))
	if d1.Identity == d3.Identity {
		t.Error("distinct types derived the same identity")
	}
}

func TestWithIdentityPinsIdentity(t *testing.T) {
	pinned := guid.Derive("remote-identity")
	d := MustDescribe(personAType(), WithIdentity(pinned))
	if d.Identity != pinned {
		t.Errorf("Identity = %s, want pinned %s", d.Identity, pinned)
	}
}

func TestFingerprintCycleSafe(t *testing.T) {
	fp := Fingerprint(reflect.TypeOf(fixtures.Node{}))
	if !strings.Contains(fp, "ref:") {
		t.Errorf("self-referential fingerprint should contain ref marker: %s", fp)
	}
	// Must terminate and be deterministic.
	if fp != Fingerprint(reflect.TypeOf(fixtures.Node{})) {
		t.Error("fingerprint not deterministic")
	}
}

func TestFingerprintDistinguishesMethods(t *testing.T) {
	// Swapped and Swappee have identical fields (none) but permuted
	// method parameter order — identities must differ.
	a := Fingerprint(reflect.TypeOf(fixtures.Swapped{}))
	b := Fingerprint(reflect.TypeOf(fixtures.Swappee{}))
	if a == b {
		t.Error("fingerprint ignored method parameter order")
	}
}

func TestCanonicalNameNoPackagePath(t *testing.T) {
	name := CanonicalName(personAType())
	if strings.Contains(name, "fixtures") || strings.Contains(name, ".") {
		t.Errorf("canonical name leaked package path: %q", name)
	}
}

func TestDescribeUnexportedFieldsFlagged(t *testing.T) {
	type hidden struct {
		Visible int
		secret  string //nolint:unused // exercised via reflection
	}
	d := MustDescribe(reflect.TypeOf(hidden{}))
	if len(d.Fields) != 2 {
		t.Fatalf("Fields = %v", d.Fields)
	}
	if !d.Fields[0].Exported || d.Fields[1].Exported {
		t.Errorf("export flags wrong: %+v", d.Fields)
	}
}

func TestDescribeDownloadPaths(t *testing.T) {
	d := MustDescribe(personAType(), WithDownloadPaths("http://a/personA", "http://b/personA"))
	if len(d.DownloadPaths) != 2 {
		t.Errorf("DownloadPaths = %v", d.DownloadPaths)
	}
}

// TestIdentitiesPinned pins derived identities to the values the
// string-built fingerprint gave, so rendering the fingerprint into a
// pooled buffer and walking reflect's sorted method set cannot move a
// type's identity (peers built from older trees must still agree).
func TestIdentitiesPinned(t *testing.T) {
	for _, tt := range []struct {
		typ  reflect.Type
		want string
	}{
		{reflect.TypeOf(fixtures.PersonA{}), "d09545b4-19c9-5ec2-85d1-4b94ee862aef"},
		{reflect.TypeOf(&fixtures.PersonB{}), "9a0685d3-683e-525d-aba0-909f4b513cf4"},
		{reflect.TypeOf(fixtures.Node{}), "d4129bc5-67da-5239-8910-df068be5d624"},
		{reflect.TypeOf(fixtures.Contact{}), "b8931243-9580-5268-8fc5-6fb43301bf65"},
		{reflect.TypeOf(fixtures.Employee{}), "3f59213a-d129-5e79-b314-ccc557e38a1e"},
		{reflect.TypeOf(fixtures.Swapped{}), "5e240777-d407-5881-a505-6b70b849d6f3"},
		{reflect.TypeOf((*fixtures.Person)(nil)).Elem(), "b991b467-be35-5842-83a4-88c32d792b39"},
		{reflect.TypeOf(map[string][]*fixtures.Address{}), "77e7664e-ed8c-5af3-bbe1-00b3760b2860"},
		{reflect.TypeOf([3]int{}), "eafb402d-1f50-5877-bc48-55995a8ff795"},
		{reflect.TypeOf(func(int, string) (bool, error) { return false, nil }), "f7208acf-ed1c-5343-8492-906592b05a6e"},
	} {
		if got := RefOf(tt.typ).Identity.String(); got != tt.want {
			t.Errorf("RefOf(%s).Identity = %s, want %s", tt.typ, got, tt.want)
		}
		if got := guid.Derive(Fingerprint(tt.typ)).String(); got != tt.want {
			t.Errorf("Derive(Fingerprint(%s)) = %s, want %s", tt.typ, got, tt.want)
		}
	}
}
