package xmlenc

import (
	"bytes"
	"encoding/base64"
	"encoding/xml"
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"pti/internal/fixtures"
	"pti/internal/guid"
	"pti/internal/typedesc"
)

// The oracle: the DTOs rendered by encoding/xml's Encoder, the way
// the package wrote its documents before the canonical writer. The
// writer must match it byte for byte.

func oracleRef(r typedesc.TypeRef) xmlRef {
	x := xmlRef{Name: r.Name}
	if !r.Identity.IsNil() {
		x.Identity = r.Identity.String()
	}
	return x
}

func oracleRefs(rs []typedesc.TypeRef) []xmlRef {
	var out []xmlRef
	for _, r := range rs {
		out = append(out, oracleRef(r))
	}
	return out
}

func oracleRefPtr(r *typedesc.TypeRef) *xmlRef {
	if r == nil {
		return nil
	}
	x := oracleRef(*r)
	return &x
}

// oracleEncode renders a DTO as the package always has: header,
// two-space indent, trailing newline.
func oracleEncode(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(xml.Header)
	enc := xml.NewEncoder(&buf)
	enc.Indent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte('\n')
	return buf.Bytes()
}

func oracleDescription(t testing.TB, d *typedesc.TypeDescription) []byte {
	x := xmlDescription{
		Name:          d.Name,
		Identity:      d.Identity.String(),
		Kind:          d.Kind.String(),
		Len:           d.Len,
		Elem:          oracleRefPtr(d.Elem),
		Key:           oracleRefPtr(d.Key),
		Super:         oracleRefPtr(d.Super),
		Interfaces:    oracleRefs(d.Interfaces),
		DownloadPaths: d.DownloadPaths,
	}
	for _, f := range d.Fields {
		x.Fields = append(x.Fields, xmlField{Name: f.Name, Exported: f.Exported, Type: oracleRef(f.Type)})
	}
	for _, m := range d.Methods {
		x.Methods = append(x.Methods, xmlMethod{Name: m.Name, Params: oracleRefs(m.Params), Returns: oracleRefs(m.Returns)})
	}
	for _, c := range d.Constructors {
		x.Constructors = append(x.Constructors, xmlCtor{Name: c.Name, Params: oracleRefs(c.Params)})
	}
	return oracleEncode(t, x)
}

func oracleEnvelope(t testing.TB, e *Envelope) []byte {
	x := xmlEnvelope{
		Type:    oracleRef(e.Type),
		Payload: xmlPayload{Encoding: string(e.Encoding), Data: base64.StdEncoding.EncodeToString(e.Payload)},
	}
	for _, a := range e.Assemblies {
		x.Assemblies = append(x.Assemblies, xmlAssembly{Type: oracleRef(a.Type), DownloadPaths: a.DownloadPaths})
	}
	return oracleEncode(t, x)
}

// The references: encoding/xml alone decodes, the package's one
// conversion step validates. Fuzz targets and differential tests
// compare the package's decoders against them.

func referenceUnmarshalDescription(data []byte) (*typedesc.TypeDescription, error) {
	var x xmlDescription
	if err := xml.Unmarshal(data, &x); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return descriptionFromXML(&x)
}

func referenceUnmarshalEnvelope(data []byte) (*Envelope, error) {
	var x xmlEnvelope
	if err := xml.Unmarshal(data, &x); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return envelopeFromXML(&x)
}

// canonicalDescriptions covers every fixtures type plus hand-built
// descriptions for each element and escaping rule the writer has.
func canonicalDescriptions(t testing.TB) []*typedesc.TypeDescription {
	withCtor, err := typedesc.Describe(reflect.TypeOf(fixtures.PersonA{}),
		typedesc.WithConstructor("NewPersonA", fixtures.NewPersonA))
	if err != nil {
		t.Fatal(err)
	}
	out := []*typedesc.TypeDescription{withCtor}
	for _, v := range []any{
		fixtures.PersonA{}, fixtures.PersonB{}, (*fixtures.Person)(nil), (*fixtures.Named)(nil),
		fixtures.Employee{}, fixtures.Address{}, fixtures.Contact{}, fixtures.Node{},
		fixtures.StockQuoteA{}, fixtures.StockQuoteB{}, fixtures.ProfileV1{}, fixtures.ProfileV2{},
		fixtures.Swapped{}, fixtures.Swappee{},
		[]fixtures.PersonA{}, map[string]int{}, [4]byte{}, &fixtures.PersonA{}, 3.14,
	} {
		typ := reflect.TypeOf(v)
		if typ.Kind() == reflect.Pointer && typ.Elem().Kind() == reflect.Interface {
			typ = typ.Elem()
		}
		d, err := typedesc.Describe(typ, typedesc.WithDownloadPaths("http://peer-a/types/"+typ.String()))
		if err != nil {
			t.Fatalf("%v: %v", typ, err)
		}
		out = append(out, d)
	}
	ref := func(name, seed string) typedesc.TypeRef {
		return typedesc.TypeRef{Name: name, Identity: guid.Derive(seed)}
	}
	elem, key, super := ref("Élément", "e"), ref("Key", "k"), ref("Base<T>", "b")
	return append(out,
		&typedesc.TypeDescription{
			Name: "Ünïcode‧Type 型", Identity: guid.Derive("u"), Kind: typedesc.KindMap,
			Elem: &elem, Key: &key, Super: &super,
			Interfaces: []typedesc.TypeRef{ref("I1", "i1"), {Name: "NoIdentity"}},
			Fields: []typedesc.Field{
				{Name: "名前", Type: ref("string", "s"), Exported: true},
				{Name: "hidden", Type: typedesc.TypeRef{Name: "int"}},
			},
			Methods: []typedesc.Method{
				{Name: "None"},
				{Name: "OnlyParams", Params: []typedesc.TypeRef{ref("a", "a"), ref("b", "b")}},
				{Name: "OnlyReturns", Returns: []typedesc.TypeRef{ref("r", "r")}},
				{Name: "Both", Params: []typedesc.TypeRef{ref("a", "a")}, Returns: []typedesc.TypeRef{ref("r", "r"), ref("e", "e")}},
			},
			Constructors: []typedesc.Constructor{{Name: "Empty"}, {Name: "New", Params: []typedesc.TypeRef{ref("x", "x")}}},
			DownloadPaths: []string{
				`http://h/a?b=1&c="2"&d='3'`, "<tag>", "tab\tnl\ncr\r", "", "bad\xffutf8\x00ctl\uFFFEnon\uFFFDok",
			},
		},
		&typedesc.TypeDescription{Name: "Arr", Identity: guid.Derive("arr"), Kind: typedesc.KindArray, Len: -3, Elem: &elem},
		&typedesc.TypeDescription{Name: "Bare", Kind: typedesc.KindPrimitive},
		&typedesc.TypeDescription{Name: "Odd", Identity: guid.Derive("odd"), Kind: typedesc.Kind(42)},
	)
}

func canonicalEnvelopes() []*Envelope {
	full := templateFixture()
	full.Assemblies = append(full.Assemblies, AssemblyInfo{
		Type:          typedesc.TypeRef{Name: "Ädresse&<\"'>"},
		DownloadPaths: []string{"a&b", "", "\xfe\t"},
	})
	full.Payload = []byte("payload \x00\xff")
	return []*Envelope{
		full,
		{Type: typedesc.TypeRef{Name: "Bare"}, Encoding: EncodingSOAP},
		{Type: typedesc.TypeRef{Identity: guid.Derive("x")}, Encoding: EncodingBinary, Payload: []byte{1}},
	}
}

// TestCanonicalWriterMatchesEncoder pins byte identity: the writer's
// documents equal encoding/xml's rendering of the same DTO, so
// templates, stored records and wire bytes are unchanged.
func TestCanonicalWriterMatchesEncoder(t *testing.T) {
	for _, d := range canonicalDescriptions(t) {
		got, err := MarshalDescription(d)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleDescription(t, d); !bytes.Equal(got, want) {
			t.Errorf("description %q:\n got %q\nwant %q", d.Name, got, want)
		}
	}
	for _, e := range canonicalEnvelopes() {
		got, err := MarshalEnvelope(e)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleEnvelope(t, e); !bytes.Equal(got, want) {
			t.Errorf("envelope %q:\n got %q\nwant %q", e.Type.Name, got, want)
		}
	}
}

// TestCanonicalScannerAcceptsWriter pins the no-fallback path: every
// document the writer emits is read by the scanner, into the DTO
// xml.Unmarshal fills, and decodes to the reference's value or error.
func TestCanonicalScannerAcceptsWriter(t *testing.T) {
	for _, d := range canonicalDescriptions(t) {
		doc, _ := MarshalDescription(d)
		x, ok := scanDescription(doc)
		if !ok {
			t.Fatalf("scanner rejected the writer's document:\n%s", doc)
		}
		var want xmlDescription
		if err := xml.Unmarshal(doc, &want); err != nil {
			t.Fatal(err)
		}
		want.XMLName = xml.Name{}
		if !reflect.DeepEqual(x, want) {
			t.Errorf("%q: scanned DTO differs\n got %+v\nwant %+v", d.Name, x, want)
		}
		got, gotErr := UnmarshalDescription(doc)
		ref, refErr := referenceUnmarshalDescription(doc)
		if fmt.Sprint(gotErr) != fmt.Sprint(refErr) || !reflect.DeepEqual(got, ref) {
			t.Errorf("%q: decode differs from reference: %v / %v", d.Name, gotErr, refErr)
		}
	}
	for _, e := range canonicalEnvelopes() {
		doc, _ := MarshalEnvelope(e)
		if _, ok := scanEnvelope(doc); !ok {
			t.Fatalf("scanner rejected the writer's envelope:\n%s", doc)
		}
		got, err := UnmarshalEnvelope(doc)
		ref, refErr := referenceUnmarshalEnvelope(doc)
		if err != nil || refErr != nil || !envEqual(got, ref) {
			t.Errorf("%q: decode differs from reference: %v / %v", e.Type.Name, err, refErr)
		}
	}
}

// TestCanonicalScannerFallsBack feeds documents the writer cannot
// have produced: the scanner declines each, and UnmarshalDescription
// still returns what encoding/xml makes of it.
func TestCanonicalScannerFallsBack(t *testing.T) {
	doc, _ := MarshalDescription(typedesc.MustDescribe(reflect.TypeOf(fixtures.Employee{})))
	s := string(doc)
	for name, foreign := range map[string]string{
		"no header":         strings.TrimPrefix(s, xml.Header),
		"self-closed":       strings.Replace(s, `"></Type>`, `"/>`, 1),
		"tab indent":        strings.Replace(s, "\n  <Field", "\n\t<Field", 1),
		"single quotes":     strings.Replace(s, `name="Employee"`, `name='Employee'`, 1),
		"other entity":      strings.Replace(s, `name="Employee"`, `name="Emp&#108;oyee"`, 1),
		"trailing comment":  s + "<!-- x -->\n",
		"exported=1":        strings.Replace(s, `exported="true"`, `exported="1"`, 1),
		"empty identity":    regexp.MustCompile(`(<Type name="string") identity="[^"]*"`).ReplaceAllString(s, `$1 identity=""`),
		"upper-case fields": strings.ToUpper(s),
	} {
		if _, ok := scanDescription([]byte(foreign)); ok {
			t.Errorf("%s: scanner accepted a foreign document", name)
		}
		got, gotErr := UnmarshalDescription([]byte(foreign))
		want, wantErr := referenceUnmarshalDescription([]byte(foreign))
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %v, %v; reference %v, %v", name, got, gotErr, want, wantErr)
		}
	}
}

// TestUnmarshalDescriptionAllocs pins the cost of first contact's
// description parse against encoding/xml measured in the same run.
func TestUnmarshalDescriptionAllocs(t *testing.T) {
	doc, err := MarshalDescription(typedesc.MustDescribe(reflect.TypeOf(fixtures.Employee{}),
		typedesc.WithConstructor("NewEmployee", fixtures.NewEmployee),
		typedesc.WithDownloadPaths("http://peer-a/types/Employee")))
	if err != nil {
		t.Fatal(err)
	}
	measure := func(f func([]byte) (*typedesc.TypeDescription, error)) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := f(doc); err != nil {
				t.Fatal(err)
			}
		})
	}
	got, ref := measure(UnmarshalDescription), measure(referenceUnmarshalDescription)
	t.Logf("allocs per parse: %v, encoding/xml reference %v", got, ref)
	if got > ref/4 {
		t.Errorf("UnmarshalDescription allocates %v times per op, encoding/xml reference %v; want <= 1/4", got, ref)
	}
}

// TestCanonicalScannerMutations mutates writer documents one byte at
// a time: whatever the scanner accepts must be
// the canonical rendering of what it scanned, and both decoders must
// agree with the encoding/xml-only references on value and error.
func TestCanonicalScannerMutations(t *testing.T) {
	descs := canonicalDescriptions(t)
	descDoc, _ := MarshalDescription(descs[len(descs)-4]) // every element and escape
	envDoc, _ := MarshalEnvelope(canonicalEnvelopes()[0])
	// Each position is deleted once and replaced twice, cycling
	// through bytes the scanner treats specially.
	repl := []byte{0, '\n', ' ', '"', '&', '<', '>', 'A', 0xc3, '1', '='}
	mutants := func(doc []byte, each func([]byte)) {
		for i := range doc {
			each(append(doc[:i:i], doc[i+1:]...))
			for _, c := range []byte{repl[i%len(repl)], repl[(i+5)%len(repl)]} {
				m := append([]byte(nil), doc...)
				m[i] = c
				each(m)
			}
		}
	}
	accepted := 0
	mutants(descDoc, func(m []byte) {
		if x, ok := scanDescription(m); ok {
			accepted++
			if canon := oracleEncode(t, x); !bytes.Equal(canon, m) {
				t.Fatalf("scanner accepted a non-canonical document\n got %q\ncanonical %q", m, canon)
			}
		}
		got, gotErr := UnmarshalDescription(m)
		want, wantErr := referenceUnmarshalDescription(m)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: got %v, %v; reference %v, %v", m, got, gotErr, want, wantErr)
		}
	})
	mutants(envDoc, func(m []byte) {
		if x, ok := scanEnvelope(m); ok {
			accepted++
			if canon := oracleEncode(t, x); !bytes.Equal(canon, m) {
				t.Fatalf("scanner accepted a non-canonical envelope\n got %q\ncanonical %q", m, canon)
			}
		}
		got, gotErr := UnmarshalEnvelope(m)
		want, wantErr := referenceUnmarshalEnvelope(m)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || (wantErr == nil && !envEqual(got, want)) {
			t.Fatalf("%q: got %v, %v; reference %v, %v", m, got, gotErr, want, wantErr)
		}
	})
	if accepted == 0 {
		t.Fatal("no mutant was canonical; the test exercises only the fallback")
	}
}
