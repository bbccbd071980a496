package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// Native fuzz targets for the wire decoders. Their seed corpora run
// on every plain `go test` (the CI gate); `go test -fuzz FuzzDecodeBinary
// ./internal/wire` explores further. Seeds are drawn from the same
// shapes robustness_test.go exercises: valid streams of the reference
// mix, truncations, bit flips and raw garbage.

func fuzzSeedStreams(tb testing.TB) [][]byte {
	tb.Helper()
	seeds := [][]byte{
		nil,
		{},
		{binMagic},
		{binMagic, tagNil},
		{binMagic, tagObject},
		{0x00, 0x01, 0x02},
		bytes.Repeat([]byte{0xFF}, 64),
	}
	valid, err := Binary{}.EncodeCompiled(nil, nil, refSample(3))
	if err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, valid)
	// A multi-ref graph (ids + refs on the wire).
	p := &refPoint{X: 1, Y: 2}
	aliased, err := Binary{}.EncodeCompiled(nil, nil, struct{ A, B *refPoint }{A: p, B: p})
	if err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, aliased)
	renamed, err := Binary{}.EncodeCompiled(nil, nil, renamedSample())
	if err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, renamed)
	// Truncations and single-bit corruption of the valid stream.
	seeds = append(seeds, valid[:len(valid)/2], valid[:1])
	for _, i := range []int{0, 1, len(valid) / 3, len(valid) - 1} {
		mutated := append([]byte(nil), valid...)
		mutated[i] ^= 0x40
		seeds = append(seeds, mutated)
	}
	return seeds
}

// renamedRef spells three of refStruct's members as a source type
// the mapped legs' resolver maps back (Name, and X and Y of every
// point), so seeds of it fill the mapped fields.
type renamedRef struct {
	ID     uint64
	Title  string
	Origin renamedPoint
	Path   []renamedPoint
}

func renamedSample() renamedRef {
	return renamedRef{ID: 9, Title: "renamed", Origin: renamedPoint{PosX: 1, PosY: -1},
		Path: []renamedPoint{{PosX: 2, PosY: 3}}}
}

// fuzzRename is the mapped legs' fixed resolver.
func fuzzRename(_ reflect.Type, _ *Object, field string) string {
	switch field {
	case "Name":
		return "Title"
	case "X":
		return "PosX"
	case "Y":
		return "PosY"
	}
	return field
}

// checkDecodes asserts the compiled decoder (with its internal
// fallback) is indistinguishable from the reflective one on the
// reference target type: once with no resolver, and twice under
// fuzzRename with a fixed fingerprint, so the second mapped decode
// reads the materializer table the first one memoized.
func checkDecodes(t *testing.T, c Codec, prog *Program, data []byte) {
	target := reflect.TypeOf(refStruct{})
	want, wantErr := c.DecodeCompiled(nil, data, target, nil, "")
	got, gotErr := c.DecodeCompiled(prog, data, target, nil, "")
	sameDecode(t, c, data, got, gotErr, want, wantErr)

	want, wantErr = c.DecodeCompiled(nil, data, target, fuzzRename, "")
	for i := 0; i < 2; i++ {
		got, gotErr = c.DecodeCompiled(prog, data, target, fuzzRename, "fuzz-rename")
		sameDecode(t, c, data, got, gotErr, want, wantErr)
	}
}

func sameDecode(t *testing.T, c Codec, data []byte, got interface{}, gotErr error, want interface{}, wantErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("compiled/reflective decode disagree on error:\ncompiled: %v\nreflective: %v", gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	// NaNs defeat DeepEqual; compare canonical re-encodings.
	wantBytes, err1 := c.EncodeCompiled(nil, nil, want)
	gotBytes, err2 := c.EncodeCompiled(nil, nil, got)
	if err1 != nil || err2 != nil {
		t.Fatalf("re-encode of decode results failed: %v / %v", err1, err2)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Fatalf("compiled and reflective decodes diverge\ninput %q\ncompiled %+v\nreflective %+v", data, got, want)
	}
}

// FuzzDecodeBinary asserts three properties on arbitrary input: the
// generic decoder never panics; whatever it accepts re-encodes and
// re-decodes to a fixed point; and checkDecodes holds.
func FuzzDecodeBinary(f *testing.F) {
	for _, s := range fuzzSeedStreams(f) {
		f.Add(s)
	}
	prog, err := CompileProgram(reflect.TypeOf(refStruct{}))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		gv, err := DecodeBinary(data)
		if err == nil {
			re, err := EncodeBinary(gv)
			if err != nil {
				t.Fatalf("accepted value failed to re-encode: %v", err)
			}
			if _, err := DecodeBinary(re); err != nil {
				t.Fatalf("re-encoded stream rejected: %v", err)
			}
		}
		checkDecodes(t, Binary{}, prog, data)
	})
}

// deepSOAPList renders an envelope whose payload is depth nested
// lists — the shape that used to recurse unboundedly through
// soapParse before maxSOAPDepth.
func deepSOAPList(depth int) []byte {
	var buf bytes.Buffer
	buf.WriteString(`<Envelope><Body>`)
	buf.WriteString(`<value type="list">`)
	for i := 1; i < depth; i++ {
		buf.WriteString(`<item type="list">`)
	}
	for i := 1; i < depth; i++ {
		buf.WriteString(`</item>`)
	}
	buf.WriteString(`</value></Body></Envelope>`)
	return buf.Bytes()
}

// FuzzDecodeSOAP asserts the XML decoder never panics, whatever it
// accepts the encoder can render back, and checkDecodes holds for the
// compiled byte scanner.
func FuzzDecodeSOAP(f *testing.F) {
	fragments := []string{
		"<Envelope><Body>", "</Body></Envelope>", "<value ", `type="long"`,
		`href="#ref-1"`, `nil="true"`, ">", "</value>", "123", "<item", "&amp;", "&#39;",
	}
	for _, fr := range fragments {
		f.Add([]byte(fr))
	}
	valid, err := SOAP{}.EncodeCompiled(nil, nil, refSample(5))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	renamed, err := SOAP{}.EncodeCompiled(nil, nil, renamedSample())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(renamed)
	f.Add([]byte(`<?xml version="1.0"?><Envelope><Body><value type="map" keyType="string" elemType="int"><entry><key type="string">k</key><val type="long">1</val></entry></value></Body></Envelope>`))
	// The depth-bound regression shape (committed seed in testdata/fuzz
	// pins the over-bound case).
	f.Add(deepSOAPList(maxSOAPDepth + 10))
	prog, err := CompileProgram(reflect.TypeOf(refStruct{}))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		gv, err := DecodeSOAP(data)
		if err == nil {
			if _, err := EncodeSOAP(gv); err != nil {
				t.Fatalf("accepted value failed to re-encode: %v", err)
			}
		}
		checkDecodes(t, SOAP{}, prog, data)
	})
}
