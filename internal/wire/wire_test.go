package wire

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"pti/internal/fixtures"
)

var codecs = []Codec{SOAP{}, Binary{}}

func roundTrip(t *testing.T, c Codec, v interface{}, target reflect.Type) interface{} {
	t.Helper()
	data, err := c.EncodeCompiled(nil, nil, v)
	if err != nil {
		t.Fatalf("%s encode: %v", c.Name(), err)
	}
	out, err := c.DecodeCompiled(nil, data, target, nil, "")
	if err != nil {
		t.Fatalf("%s decode: %v", c.Name(), err)
	}
	return out
}

func TestRoundTripPerson(t *testing.T) {
	for _, c := range codecs {
		t.Run(c.Name(), func(t *testing.T) {
			in := fixtures.PersonA{Name: "Alice", Age: 30}
			out := roundTrip(t, c, in, reflect.TypeOf(fixtures.PersonA{}))
			if !reflect.DeepEqual(out, in) {
				t.Errorf("round trip = %+v, want %+v", out, in)
			}
		})
	}
}

func TestRoundTripNestedContact(t *testing.T) {
	// Figure 3: an object of type A containing an object of type B.
	for _, c := range codecs {
		t.Run(c.Name(), func(t *testing.T) {
			in := fixtures.Contact{
				Who:   fixtures.PersonA{Name: "Bob", Age: 42},
				Where: fixtures.Address{Street: "Rue de Lausanne", City: "Lausanne", Zip: "1015"},
				Tags:  []string{"friend", "epfl"},
			}
			out := roundTrip(t, c, in, reflect.TypeOf(fixtures.Contact{}))
			if !reflect.DeepEqual(out, in) {
				t.Errorf("round trip = %+v, want %+v", out, in)
			}
		})
	}
}

func TestRoundTripScalars(t *testing.T) {
	type scalars struct {
		B   bool
		I   int
		I8  int8
		I64 int64
		U   uint
		U16 uint16
		F32 float32
		F64 float64
		S   string
		By  []byte
	}
	in := scalars{
		B: true, I: -42, I8: -8, I64: math.MinInt64,
		U: 7, U16: 65535, F32: 1.5, F64: math.Pi,
		S: "héllo <xml> & \"quotes\"", By: []byte{0, 1, 2, 255},
	}
	for _, c := range codecs {
		t.Run(c.Name(), func(t *testing.T) {
			out := roundTrip(t, c, in, reflect.TypeOf(scalars{}))
			if !reflect.DeepEqual(out, in) {
				t.Errorf("round trip = %+v, want %+v", out, in)
			}
		})
	}
}

func TestRoundTripCollections(t *testing.T) {
	type collections struct {
		Slice []int
		Arr   [3]string
		M     map[string]int
		MI    map[int]string
		Deep  []fixtures.Address
	}
	in := collections{
		Slice: []int{1, 2, 3},
		Arr:   [3]string{"a", "b", "c"},
		M:     map[string]int{"x": 1, "y": 2},
		MI:    map[int]string{1: "one", 2: "two"},
		Deep:  []fixtures.Address{{City: "Geneva"}, {City: "Bern"}},
	}
	for _, c := range codecs {
		t.Run(c.Name(), func(t *testing.T) {
			out := roundTrip(t, c, in, reflect.TypeOf(collections{}))
			if !reflect.DeepEqual(out, in) {
				t.Errorf("round trip = %+v, want %+v", out, in)
			}
		})
	}
}

func TestRoundTripPointersAndNil(t *testing.T) {
	type holder struct {
		P   *fixtures.PersonA
		Nil *fixtures.PersonA
		S   []int // nil slice
		M   map[string]int
	}
	in := holder{P: &fixtures.PersonA{Name: "Carol", Age: 28}}
	for _, c := range codecs {
		t.Run(c.Name(), func(t *testing.T) {
			out := roundTrip(t, c, in, reflect.TypeOf(holder{})).(holder)
			if out.P == nil || out.P.Name != "Carol" {
				t.Errorf("P = %+v", out.P)
			}
			if out.Nil != nil || out.S != nil || out.M != nil {
				t.Errorf("nil fields not preserved: %+v", out)
			}
		})
	}
}

func TestAliasingPreserved(t *testing.T) {
	// Two fields pointing at the same object must still alias after
	// the round trip — the SOAP multi-ref (id/href) behaviour.
	type pair struct {
		First  *fixtures.PersonA
		Second *fixtures.PersonA
	}
	shared := &fixtures.PersonA{Name: "Shared", Age: 1}
	in := pair{First: shared, Second: shared}
	for _, c := range codecs {
		t.Run(c.Name(), func(t *testing.T) {
			out := roundTrip(t, c, in, reflect.TypeOf(pair{})).(pair)
			if out.First == nil || out.Second == nil {
				t.Fatal("lost pointers")
			}
			if out.First != out.Second {
				t.Error("aliasing lost: First and Second point at different objects")
			}
			out.First.Name = "Mutated"
			if out.Second.Name != "Mutated" {
				t.Error("aliasing lost")
			}
		})
	}
}

func TestCyclePreserved(t *testing.T) {
	// A two-node cycle: n1 -> n2 -> n1.
	n1 := &fixtures.Node{Value: 1}
	n2 := &fixtures.Node{Value: 2, Next: n1}
	n1.Next = n2
	for _, c := range codecs {
		t.Run(c.Name(), func(t *testing.T) {
			out := roundTrip(t, c, n1, reflect.TypeOf(&fixtures.Node{})).(*fixtures.Node)
			if out.Value != 1 || out.Next == nil || out.Next.Value != 2 {
				t.Fatalf("structure lost: %+v", out)
			}
			if out.Next.Next != out {
				t.Error("cycle lost")
			}
		})
	}
}

func TestSelfCycle(t *testing.T) {
	n := &fixtures.Node{Value: 9}
	n.Next = n
	for _, c := range codecs {
		t.Run(c.Name(), func(t *testing.T) {
			out := roundTrip(t, c, n, reflect.TypeOf(&fixtures.Node{})).(*fixtures.Node)
			if out.Next != out {
				t.Error("self cycle lost")
			}
		})
	}
}

func TestDecodeGenericUnknownType(t *testing.T) {
	// The receiver-side path for never-seen types: decode into the
	// generic model and inspect by name.
	in := fixtures.PersonB{PersonName: "Dave", PersonAge: 55}
	for _, c := range codecs {
		t.Run(c.Name(), func(t *testing.T) {
			data, err := c.EncodeCompiled(nil, nil, in)
			if err != nil {
				t.Fatal(err)
			}
			gv, err := c.DecodeGeneric(data)
			if err != nil {
				t.Fatal(err)
			}
			obj, ok := gv.(*Object)
			if !ok {
				t.Fatalf("generic value = %T", gv)
			}
			if obj.TypeName != "PersonB" {
				t.Errorf("TypeName = %q", obj.TypeName)
			}
			name, ok := obj.Field("PersonName")
			if !ok || name != "Dave" {
				t.Errorf("PersonName = %v", name)
			}
			age, ok := obj.Field("PersonAge")
			if !ok || age != int64(55) {
				t.Errorf("PersonAge = %v (%T)", age, age)
			}
		})
	}
}

func TestFieldResolverCrossType(t *testing.T) {
	// Deserialize a PersonB stream into a PersonA value through a
	// conformance-style field mapping.
	in := fixtures.PersonB{PersonName: "Eve", PersonAge: 33}
	mapping := map[string]string{"Name": "PersonName", "Age": "PersonAge"}
	resolve := func(_ reflect.Type, _ *Object, target string) string {
		if src, ok := mapping[target]; ok {
			return src
		}
		return target
	}
	for _, c := range codecs {
		t.Run(c.Name(), func(t *testing.T) {
			data, err := c.EncodeCompiled(nil, nil, in)
			if err != nil {
				t.Fatal(err)
			}
			out, err := c.DecodeCompiled(nil, data, reflect.TypeOf(fixtures.PersonA{}), resolve, "")
			if err != nil {
				t.Fatal(err)
			}
			pa := out.(fixtures.PersonA)
			if pa.Name != "Eve" || pa.Age != 33 {
				t.Errorf("bound PersonA = %+v", pa)
			}
		})
	}
}

func TestMissingFieldsTolerated(t *testing.T) {
	// Old sender, new receiver: absent fields stay zero.
	type V1 struct{ Name string }
	type V2 struct {
		Name  string
		Extra int
	}
	for _, c := range codecs {
		t.Run(c.Name(), func(t *testing.T) {
			data, err := c.EncodeCompiled(nil, nil, V1{Name: "old"})
			if err != nil {
				t.Fatal(err)
			}
			out, err := c.DecodeCompiled(nil, data, reflect.TypeOf(V2{}), nil, "")
			if err != nil {
				t.Fatal(err)
			}
			v2 := out.(V2)
			if v2.Name != "old" || v2.Extra != 0 {
				t.Errorf("v2 = %+v", v2)
			}
		})
	}
}

func TestTypeMismatchRejected(t *testing.T) {
	type StrBox struct{ V string }
	type IntBox struct{ V int }
	for _, c := range codecs {
		t.Run(c.Name(), func(t *testing.T) {
			data, err := c.EncodeCompiled(nil, nil, StrBox{V: "oops"})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.DecodeCompiled(nil, data, reflect.TypeOf(IntBox{}), nil, ""); err == nil {
				t.Error("string into int field should fail")
			}
		})
	}
}

func TestUnsupportedValues(t *testing.T) {
	for _, c := range codecs {
		t.Run(c.Name(), func(t *testing.T) {
			if _, err := c.EncodeCompiled(nil, nil, make(chan int)); err == nil {
				t.Error("chan should be unsupported")
			}
			if _, err := c.EncodeCompiled(nil, nil, struct{ F func() }{}); err == nil {
				t.Error("func field should be unsupported")
			}
		})
	}
}

func TestDecodeCorruptStreams(t *testing.T) {
	in := fixtures.PersonA{Name: "x", Age: 1}
	for _, c := range codecs {
		data, err := c.EncodeCompiled(nil, nil, in)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(c.Name()+" truncated", func(t *testing.T) {
			for cut := 1; cut < len(data)-1; cut += 7 {
				if _, err := c.DecodeGeneric(data[:cut]); err == nil {
					t.Errorf("truncation at %d accepted", cut)
				}
			}
		})
		t.Run(c.Name()+" garbage", func(t *testing.T) {
			if _, err := c.DecodeGeneric([]byte("garbage")); err == nil {
				t.Error("garbage accepted")
			}
			if _, err := c.DecodeGeneric(nil); err == nil {
				t.Error("empty accepted")
			}
		})
	}
}

func TestSOAPIsHumanReadable(t *testing.T) {
	data, err := SOAP{}.EncodeCompiled(nil, nil, fixtures.PersonA{Name: "Grace", Age: 7})
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	for _, want := range []string{"<Envelope>", "<Body>", `type="PersonA"`, "Grace", `type="long"`} {
		if !strings.Contains(doc, want) {
			t.Errorf("SOAP doc missing %q:\n%s", want, doc)
		}
	}
}

func TestBinarySmallerThanSOAP(t *testing.T) {
	// The paper's rationale for offering binary: efficiency.
	in := fixtures.Contact{
		Who:   fixtures.PersonA{Name: "Heidi", Age: 44},
		Where: fixtures.Address{Street: "Main", City: "Zurich", Zip: "8000"},
		Tags:  []string{"a", "b", "c"},
	}
	soapData, err := SOAP{}.EncodeCompiled(nil, nil, in)
	if err != nil {
		t.Fatal(err)
	}
	binData, err := Binary{}.EncodeCompiled(nil, nil, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(binData) >= len(soapData) {
		t.Errorf("binary (%d bytes) should be smaller than SOAP (%d bytes)",
			len(binData), len(soapData))
	}
}

func TestDanglingRefRejected(t *testing.T) {
	obj := &Object{
		TypeName: "Node",
		Fields: []FieldValue{
			{Name: "Value", Value: int64(1)},
			{Name: "Next", Value: &Ref{ID: 99}},
		},
	}
	for _, enc := range []struct {
		name   string
		encode func(Value) ([]byte, error)
		decode func([]byte) (Value, error)
	}{
		{"soap", EncodeSOAP, DecodeSOAP},
		{"binary", EncodeBinary, DecodeBinary},
	} {
		t.Run(enc.name, func(t *testing.T) {
			data, err := enc.encode(obj)
			if err != nil {
				t.Fatal(err)
			}
			gv, err := enc.decode(data)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ToGo(gv, reflect.TypeOf(fixtures.Node{}), nil); err == nil {
				t.Error("dangling ref should fail materialization")
			}
		})
	}
}

func TestByName(t *testing.T) {
	if c, err := ByName("soap"); err != nil || c.Name() != "soap" {
		t.Errorf("ByName(soap) = %v, %v", c, err)
	}
	if c, err := ByName("binary"); err != nil || c.Name() != "binary" {
		t.Errorf("ByName(binary) = %v, %v", c, err)
	}
	if _, err := ByName("smoke-signals"); err == nil {
		t.Error("unknown codec should error")
	}
}

func TestObjectFieldHelpers(t *testing.T) {
	obj := &Object{TypeName: "X"}
	if _, ok := obj.Field("missing"); ok {
		t.Error("missing field found")
	}
	obj.SetField("a", int64(1))
	obj.SetField("a", int64(2)) // replace
	obj.SetField("b", "two")
	if v, _ := obj.Field("a"); v != int64(2) {
		t.Errorf("a = %v", v)
	}
	if len(obj.Fields) != 2 {
		t.Errorf("fields = %v", obj.Fields)
	}
}

func TestDeterministicEncoding(t *testing.T) {
	// Maps are sorted; repeated encodings must be byte-identical.
	in := map[string]int{"z": 26, "a": 1, "m": 13}
	for _, c := range codecs {
		t.Run(c.Name(), func(t *testing.T) {
			d1, err := c.EncodeCompiled(nil, nil, in)
			if err != nil {
				t.Fatal(err)
			}
			d2, err := c.EncodeCompiled(nil, nil, in)
			if err != nil {
				t.Fatal(err)
			}
			if string(d1) != string(d2) {
				t.Error("encoding is not deterministic")
			}
		})
	}
}

func TestTimeAndTextMarshalerRoundTrip(t *testing.T) {
	type Meeting struct {
		Title string
		When  time.Time
		IP    guidLike
	}
	in := Meeting{
		Title: "sync",
		When:  time.Date(2003, 5, 19, 14, 30, 0, 0, time.UTC), // ICDCS 2003
		IP:    guidLike{1, 2, 3},
	}
	for _, c := range codecs {
		t.Run(c.Name(), func(t *testing.T) {
			out := roundTrip(t, c, in, reflect.TypeOf(Meeting{})).(Meeting)
			if !out.When.Equal(in.When) {
				t.Errorf("When = %v, want %v", out.When, in.When)
			}
			if out.Title != "sync" || out.IP != in.IP {
				t.Errorf("round trip = %+v", out)
			}
		})
	}
}

// guidLike exercises array-kind TextMarshalers.
type guidLike [3]byte

func (g guidLike) MarshalText() ([]byte, error) {
	return []byte(fmt.Sprintf("%d-%d-%d", g[0], g[1], g[2])), nil
}

func (g *guidLike) UnmarshalText(text []byte) error {
	_, err := fmt.Sscanf(string(text), "%d-%d-%d", &g[0], &g[1], &g[2])
	return err
}

func TestTimeInGenericModelIsString(t *testing.T) {
	// A receiver that does not know the type still sees a readable
	// value, not an empty object.
	type Stamped struct{ At time.Time }
	in := Stamped{At: time.Date(2026, 6, 12, 0, 0, 0, 0, time.UTC)}
	data, err := Binary{}.EncodeCompiled(nil, nil, in)
	if err != nil {
		t.Fatal(err)
	}
	gv, err := Binary{}.DecodeGeneric(data)
	if err != nil {
		t.Fatal(err)
	}
	at, ok := gv.(*Object).Field("At")
	if !ok {
		t.Fatal("At missing")
	}
	s, ok := at.(string)
	if !ok || !strings.Contains(s, "2026-06-12") {
		t.Errorf("At = %v (%T)", at, at)
	}
}

func TestBadTextRejected(t *testing.T) {
	type Stamped struct{ At time.Time }
	obj := &Object{TypeName: "Stamped", Fields: []FieldValue{{Name: "At", Value: "not-a-time"}}}
	if _, err := ToGo(obj, reflect.TypeOf(Stamped{}), nil); err == nil {
		t.Error("invalid time text accepted")
	}
}

func TestSpecialFloats(t *testing.T) {
	type floats struct {
		PosInf float64
		NegInf float64
		NaN    float64
		Tiny   float64
	}
	in := floats{
		PosInf: math.Inf(1),
		NegInf: math.Inf(-1),
		NaN:    math.NaN(),
		Tiny:   math.SmallestNonzeroFloat64,
	}
	for _, c := range codecs {
		t.Run(c.Name(), func(t *testing.T) {
			out := roundTrip(t, c, in, reflect.TypeOf(floats{})).(floats)
			if !math.IsInf(out.PosInf, 1) || !math.IsInf(out.NegInf, -1) {
				t.Errorf("infinities lost: %+v", out)
			}
			if !math.IsNaN(out.NaN) {
				t.Errorf("NaN lost: %v", out.NaN)
			}
			if out.Tiny != in.Tiny {
				t.Errorf("subnormal lost: %v", out.Tiny)
			}
		})
	}
}

func TestEmbeddedStructRoundTrip(t *testing.T) {
	in := fixtures.Employee{
		PersonA: fixtures.PersonA{Name: "Emb", Age: 50},
		Company: "EPFL",
		Salary:  1234.5,
	}
	for _, c := range codecs {
		t.Run(c.Name(), func(t *testing.T) {
			out := roundTrip(t, c, in, reflect.TypeOf(fixtures.Employee{})).(fixtures.Employee)
			if !reflect.DeepEqual(out, in) {
				t.Errorf("round trip = %+v, want %+v", out, in)
			}
			if out.GetName() != "Emb" {
				t.Error("promoted method broken after round trip")
			}
		})
	}
}

func TestInterfaceFieldRoundTrip(t *testing.T) {
	type carrier struct {
		Payload interface{}
	}
	in := carrier{Payload: int64(42)}
	for _, c := range codecs {
		t.Run(c.Name(), func(t *testing.T) {
			out := roundTrip(t, c, in, reflect.TypeOf(carrier{})).(carrier)
			if out.Payload != int64(42) {
				t.Errorf("Payload = %v (%T)", out.Payload, out.Payload)
			}
		})
	}
	// A struct inside an interface field decodes as a generic object
	// (the concrete type cannot be known).
	in2 := carrier{Payload: fixtures.Address{City: "Sion"}}
	data, err := Binary{}.EncodeCompiled(nil, nil, in2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Binary{}.DecodeCompiled(nil, data, reflect.TypeOf(carrier{}), nil, "")
	if err != nil {
		t.Fatal(err)
	}
	obj, ok := out.(carrier).Payload.(*Object)
	if !ok || obj.TypeName != "Address" {
		t.Errorf("Payload = %+v", out.(carrier).Payload)
	}
}
