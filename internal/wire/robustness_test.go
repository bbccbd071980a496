package wire

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// TestBinaryDecoderNeverPanicsOnRandomBytes feeds the binary decoder
// random garbage: it must return an error or a value, never panic and
// never allocate absurdly (the readLen guard).
func TestBinaryDecoderNeverPanicsOnRandomBytes(t *testing.T) {
	r := rand.New(rand.NewSource(0xBAD))
	for i := 0; i < 5000; i++ {
		n := r.Intn(256)
		buf := make([]byte, n)
		r.Read(buf)
		if n > 0 {
			buf[0] = binMagic // get past the magic check half the time
			if r.Intn(2) == 0 && n > 1 {
				buf[0] = byte(r.Intn(256))
			}
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panic on input %x: %v", buf, p)
				}
			}()
			_, _ = DecodeBinary(buf)
		}()
	}
}

// TestBinaryDecoderMutatedValidStreams flips bytes of valid streams.
func TestBinaryDecoderMutatedValidStreams(t *testing.T) {
	valid, err := Binary{}.EncodeCompiled(nil, nil, struct {
		Name string
		Vals []int
		M    map[string]int
	}{Name: "x", Vals: []int{1, 2}, M: map[string]int{"k": 1}})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		mutated := append([]byte(nil), valid...)
		for j := 0; j < 1+r.Intn(4); j++ {
			mutated[r.Intn(len(mutated))] ^= byte(1 << r.Intn(8))
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panic on mutation %x: %v", mutated, p)
				}
			}()
			_, _ = DecodeBinary(mutated)
		}()
	}
}

// TestSOAPDecoderNeverPanicsOnRandomBytes does the same for the XML
// decoder.
func TestSOAPDecoderNeverPanicsOnRandomBytes(t *testing.T) {
	r := rand.New(rand.NewSource(0x50AF))
	corpus := []string{
		"<Envelope><Body>", "</Body></Envelope>", "<value ", `type="long"`,
		`href="#ref-1"`, `nil="true"`, ">", "</value>", "123", "<item", "&amp;",
	}
	for i := 0; i < 3000; i++ {
		var doc []byte
		for j := 0; j < r.Intn(12); j++ {
			doc = append(doc, corpus[r.Intn(len(corpus))]...)
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panic on doc %q: %v", doc, p)
				}
			}()
			_, _ = DecodeSOAP(doc)
		}()
	}
}

// TestDeepNestingBounded verifies a deeply nested stream is rejected
// rather than exhausting the stack.
func TestDeepNestingBounded(t *testing.T) {
	// Hand-build a binary stream of maxBinDepth+10 nested lists.
	var buf []byte
	buf = append(buf, binMagic)
	depth := maxBinDepth + 10
	for i := 0; i < depth; i++ {
		buf = append(buf, tagList)
		buf = append(buf, 0) // empty elem type
		buf = append(buf, 1) // one item
	}
	buf = append(buf, tagNil)
	if _, err := DecodeBinary(buf); err == nil {
		t.Error("over-deep stream accepted")
	}
}

// TestSOAPDeepNestingBounded pins maxSOAPDepth: nesting at and just
// below the bound decodes, nesting above it is rejected with
// ErrBadStream — under the generic decoder and under the compiled
// byte scanner's codec entry point alike (which must fall back, not
// recurse past the bound itself).
func TestSOAPDeepNestingBounded(t *testing.T) {
	// soapParse admits the item at depth d iff d <= maxSOAPDepth; the
	// root sits at 0, so N nested lists put the innermost at N-1.
	cases := []struct {
		name   string
		depth  int
		wantOK bool
	}{
		{"below-bound", maxSOAPDepth, true},
		{"at-bound", maxSOAPDepth + 1, true},
		{"above-bound", maxSOAPDepth + 2, false},
		{"far-above-bound", maxSOAPDepth + 100, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc := deepSOAPList(tc.depth)
			v, err := DecodeSOAP(doc)
			if tc.wantOK {
				if err != nil {
					t.Fatalf("depth %d rejected: %v", tc.depth, err)
				}
				// Walk down to make sure the full chain materialized.
				lvl := 0
				for l, ok := v.(*List); ok && len(l.Items) == 1; l, ok = l.Items[0].(*List) {
					lvl++
				}
				if lvl != tc.depth-1 {
					t.Fatalf("materialized %d levels, want %d", lvl, tc.depth-1)
				}
				return
			}
			if !errors.Is(err, ErrBadStream) {
				t.Fatalf("depth %d: want ErrBadStream, got %v", tc.depth, err)
			}
		})
	}
}

// nestedKids is a recursive shape the compiled decoder handles
// directly; documents deeper than the bound must be rejected through
// DecodeCompiled too (compiled bail + reflective ErrBadStream), for
// both codecs.
type nestedKids struct {
	K []nestedKids
}

func deepKids(depth int) nestedKids {
	v := nestedKids{}
	for i := 1; i < depth; i++ {
		v = nestedKids{K: []nestedKids{v}}
	}
	return v
}

func TestCompiledDecodeDepthBounded(t *testing.T) {
	prog := mustProgram(t, nestedKids{})
	target := reflect.TypeOf(nestedKids{})
	// Each nestedKids level is two stream levels (struct + list), so
	// 600 levels sit far beyond both decode bounds.
	overDeep := deepKids(600)
	shallow := deepKids(40)
	for _, c := range codecs {
		t.Run(c.Name(), func(t *testing.T) {
			data, err := c.EncodeCompiled(nil, nil, shallow)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.DecodeCompiled(prog, data, target, nil, "")
			if err != nil {
				t.Fatalf("shallow decode: %v", err)
			}
			if !reflect.DeepEqual(got, shallow) {
				t.Fatal("shallow decode mismatch")
			}

			deep, err := c.EncodeCompiled(nil, nil, overDeep)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.DecodeCompiled(prog, deep, target, nil, ""); !errors.Is(err, ErrBadStream) {
				t.Fatalf("over-deep stream: want ErrBadStream, got %v", err)
			}
		})
	}
}

// TestCompiledSOAPScannerDialect spot-checks documents at the edges of
// the compiled scanner's dialect: each must either decode identically
// to the reflective pipeline or fall back to it (never diverge), and
// the cases marked fast must actually take the fast path so the hot
// shapes stay compiled.
func TestCompiledSOAPScannerDialect(t *testing.T) {
	type pair struct {
		A int64
		S string
	}
	prog := mustProgram(t, pair{})
	target := reflect.TypeOf(pair{})
	doc := func(body string) []byte {
		return []byte("<Envelope><Body>" + body + "</Body></Envelope>")
	}
	cases := []struct {
		name string
		doc  []byte
		fast bool // must not bail
	}{
		{"plain", doc(`<value type="pair"><A type="long">7</A><S type="string">hi</S></value>`), true},
		{"xml-header", append([]byte(nil), append(append([]byte{}, xmlHeaderBytes...), doc(`<value type="pair"><A type="long">7</A></value>`)...)...), true},
		{"whitespace-between-fields", doc("<value type=\"pair\">\n  <A type=\"long\">7</A>\n  <S type=\"string\">x</S>\n</value>"), true},
		{"entities", doc(`<value type="pair"><S type="string">&lt;&amp;&gt;&#39;&quot;&#x41;</S></value>`), true},
		{"unknown-field-skipped", doc(`<value type="pair"><Z type="double">1.5</Z><A type="long">7</A></value>`), true},
		{"unknown-object-skipped", doc(`<value type="pair"><Z type="Thing" id="ref-3"><W nil="true"/></Z></value>`), true},
		{"self-closing-value", doc(`<value type="pair"/>`), true},
		{"nil-field", doc(`<value type="pair"><S nil="true"/></value>`), true},
		{"attr-single-quotes", doc(`<value type='pair'><A type='long'>7</A></value>`), true},
		{"duplicate-field-first-wins", doc(`<value type="pair"><A type="long">7</A><A type="long">9</A></value>`), true},
		{"uint-coercion", doc(`<value type="pair"><A type="unsignedLong">7</A></value>`), true},
		{"double-coercion", doc(`<value type="pair"><A type="double">7</A></value>`), true},
		// Valid XML outside the dialect: must fall back, not diverge.
		{"comment", doc(`<value type="pair"><!-- c --><A type="long">7</A></value>`), false},
		{"cdata", doc(`<value type="pair"><S type="string"><![CDATA[x]]></S></value>`), false},
		{"namespaced", doc(`<ns:value type="pair"></ns:value>`), false},
		{"crlf-text", doc("<value type=\"pair\"><S type=\"string\">a\r\nb</S></value>"), false},
		{"bad-long", doc(`<value type="pair"><A type="long">7x</A></value>`), false},
		{"missing-type", doc(`<value><A type="long">7</A></value>`), false},
		{"truncated", doc(`<value type="pair"><A type="long">7`), false},
		{"overflow-long", doc(`<value type="pair"><A type="long">99999999999999999999</A></value>`), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, wantErr := SOAP{}.DecodeCompiled(nil, tc.doc, target, nil, "")
			gotFast, fastOK := prog.decodeSOAP(tc.doc, target, nil, "", "")
			if tc.fast {
				if !fastOK {
					t.Fatalf("scanner bailed on a dialect document:\n%s", tc.doc)
				}
				if wantErr != nil {
					t.Fatalf("reflective rejected what the scanner accepted: %v", wantErr)
				}
				if !reflect.DeepEqual(gotFast, want) {
					t.Fatalf("fast path diverged\n got %+v\nwant %+v", gotFast, want)
				}
			}
			got, gotErr := SOAP{}.DecodeCompiled(prog, tc.doc, target, nil, "")
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("error mismatch: compiled %v, reflective %v", gotErr, wantErr)
			}
			if wantErr == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("codec decode diverged\n got %+v\nwant %+v", got, want)
			}
		})
	}
}
