package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// The reference struct mix: the shape the wire benchmarks and the
// compiled≡reflective differential pin — strings, signed/unsigned
// ints, floats, bools, bytes, slices, a map and nested structs.
type refPoint struct {
	X, Y float64
}

type refStruct struct {
	ID      uint64
	Name    string
	Active  bool
	Score   float64
	Balance int64
	Tags    []string
	Counts  []int32
	Blob    []byte
	Attrs   map[string]string
	Origin  refPoint
	Path    []refPoint
}

func refSample(i int) refStruct {
	return refStruct{
		ID:      uint64(i) * 7,
		Name:    fmt.Sprintf("subject-%d <&> 'quoted'", i),
		Active:  i%2 == 0,
		Score:   float64(i) * 1.125,
		Balance: int64(-i * 1000),
		Tags:    []string{"alpha", "beta", fmt.Sprintf("tag-%d", i)},
		Counts:  []int32{1, -2, int32(i)},
		Blob:    []byte{0x00, 0xFF, byte(i)},
		Attrs:   map[string]string{"k1": "v1", "k2": fmt.Sprintf("v-%d", i), "10": "ten", "2": "two"},
		Origin:  refPoint{X: 1.5, Y: -2.25},
		Path:    []refPoint{{X: 0, Y: 0}, {X: float64(i), Y: float64(-i)}},
	}
}

func mustProgram(t testing.TB, v interface{}) *Program {
	t.Helper()
	p, err := CompileProgram(reflect.TypeOf(v))
	if err != nil {
		t.Fatalf("CompileProgram: %v", err)
	}
	return p
}

func TestProgramDirectEligibility(t *testing.T) {
	direct := []interface{}{
		refStruct{},
		refPoint{},
		struct{ A int }{},
		struct{ Kids []refPoint }{},
		struct{ M map[int]string }{},
		struct{ B [4]byte }{},
		struct{ A [2]int }{},
	}
	for _, v := range direct {
		if p := mustProgram(t, v); !p.Direct() {
			t.Errorf("%T: expected direct program", v)
		}
	}
	indirect := []interface{}{
		struct{ P *refPoint }{},
		struct{ I interface{} }{},
		struct{ F func() }{},
		struct{ C chan int }{},
		struct{ M map[refPoint]int }{}, // composite map key
		struct{ N struct{ P *int } }{},
	}
	for _, v := range indirect {
		if p := mustProgram(t, v); p.Direct() {
			t.Errorf("%T: expected fallback (non-direct) program", v)
		}
	}
	// Decode eligibility is wider than encode eligibility: single-level
	// pointers and composite map keys decode directly (the materializer
	// side has no alias-tracking or ordering concern), while dynamic
	// types stay reflective on both sides.
	decodeDirect := []interface{}{
		struct{ P *refPoint }{},
		struct{ N struct{ P *int } }{},
		struct{ M map[refPoint]int }{},
	}
	for _, v := range decodeDirect {
		p := mustProgram(t, v)
		if p.Direct() || !p.DecodeDirect() {
			t.Errorf("%T: expected decode-only program (direct=%v decodeDirect=%v)", v, p.Direct(), p.DecodeDirect())
		}
	}
	neither := []interface{}{
		struct{ I interface{} }{},
		struct{ F func() }{},
		struct{ C chan int }{},
		struct{ PP **int }{}, // nested pointer
	}
	for _, v := range neither {
		if p := mustProgram(t, v); p.DecodeDirect() {
			t.Errorf("%T: expected fully reflective program", v)
		}
	}
}

// TestCompiledEncodeMatchesReflective pins the tentpole guarantee:
// the compiled encoders produce byte-for-byte the reflective
// pipeline's output, for both codecs.
func TestCompiledEncodeMatchesReflective(t *testing.T) {
	prog := mustProgram(t, refStruct{})
	if !prog.Direct() {
		t.Fatal("reference mix must compile to a direct program")
	}
	for _, c := range codecs {
		t.Run(c.Name(), func(t *testing.T) {
			for i := 0; i < 50; i++ {
				v := refSample(i)
				want, err := c.EncodeCompiled(nil, nil, v)
				if err != nil {
					t.Fatal(err)
				}
				got, err := c.EncodeCompiled(prog, nil, v)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("sample %d: compiled and reflective %s encodings differ\n got %q\nwant %q",
						i, c.Name(), got, want)
				}
				// Pointer at the top level encodes like the value.
				got2, err := c.EncodeCompiled(prog, nil, &v)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got2, want) {
					t.Fatalf("sample %d: pointer encoding differs", i)
				}
			}
		})
	}

	// A renamed recursive type: only the root carries the logical
	// name, nested values keep the Go spelling.
	named, err := CompileProgramNamed(reflect.TypeOf(recTree{}), "Tree")
	if err != nil {
		t.Fatal(err)
	}
	if !named.Direct() {
		t.Fatal("recursive tree must compile to a direct program")
	}
	tree := recTree{Name: "root", Kids: []recTree{{Name: "a", Kids: []recTree{{Name: "b"}}}, {Name: "c"}}}
	for _, c := range []struct {
		codec  Codec
		encode func(Value) ([]byte, error)
	}{{SOAP{}, EncodeSOAP}, {Binary{}, EncodeBinary}} {
		// A compiled encoder that always declines leaves the fallback.
		decline := func(*Program, []byte, interface{}) ([]byte, bool, error) { return nil, false, nil }
		want, err := encodeCompiled(named, nil, tree, decline, c.encode)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.codec.EncodeCompiled(named, nil, tree)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("renamed recursive %s: compiled and reflective encodings differ\n got %q\nwant %q",
				c.codec.Name(), got, want)
		}
	}
}

// recTree is a recursive struct; TestCompiledEncodeMatchesReflective
// compiles it under the logical name "Tree".
type recTree struct {
	Name string
	Kids []recTree
}

// TestCompiledEncodeNilMatchesReflective pins the top-level nil — a
// nil interface, or a nil pointer to the program's type — to the
// reflective encoding under both codecs (a remote method may return a
// nil *T of a registered T).
func TestCompiledEncodeNilMatchesReflective(t *testing.T) {
	progs := []*Program{mustProgram(t, refStruct{}), mustProgram(t, "")}
	for _, c := range codecs {
		want, err := c.EncodeCompiled(nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, prog := range progs {
			for _, v := range []interface{}{nil, (*refStruct)(nil)} {
				got, err := c.EncodeCompiled(prog, nil, v)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s %v %T: compiled %q, reflective %q", c.Name(), prog.Type, v, got, want)
				}
			}
		}
	}
}

func TestCompiledDecodeMatchesReflective(t *testing.T) {
	prog := mustProgram(t, refStruct{})
	for i := 0; i < 50; i++ {
		v := refSample(i)
		data, err := Binary{}.EncodeCompiled(nil, nil, v)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Binary{}.DecodeCompiled(nil, data, reflect.TypeOf(refStruct{}), nil, "")
		if err != nil {
			t.Fatal(err)
		}
		got, err := Binary{}.DecodeCompiled(prog, data, reflect.TypeOf(refStruct{}), nil, "")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("sample %d: decode mismatch\n got %+v\nwant %+v", i, got, want)
		}
		// Pointer target.
		gotP, err := Binary{}.DecodeCompiled(prog, data, reflect.TypeOf(&refStruct{}), nil, "")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotP, &v) {
			t.Fatalf("sample %d: pointer decode mismatch", i)
		}
	}
}

// renamedSource mirrors refPoint under different field names, to
// exercise the mapped materializer tables.
type renamedPoint struct {
	PosX float64
	PosY float64
}

func TestCompiledDecodeMappedResolver(t *testing.T) {
	src := renamedPoint{PosX: 4.5, PosY: -1}
	data, err := Binary{}.EncodeCompiled(nil, nil, src)
	if err != nil {
		t.Fatal(err)
	}
	// Resolver translating refPoint's expected names to the renamed
	// source names, keyed purely off the source type name (the
	// contract DecodeCompiled memoization relies on).
	resolve := func(target reflect.Type, source *Object, field string) string {
		if source == nil || source.TypeName != "renamedPoint" {
			return field
		}
		return map[string]string{"X": "PosX", "Y": "PosY"}[field]
	}
	prog := mustProgram(t, refPoint{})
	want, err := Binary{}.DecodeCompiled(nil, data, reflect.TypeOf(refPoint{}), resolve, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // repeated decodes hit the memoized table
		got, err := Binary{}.DecodeCompiled(prog, data, reflect.TypeOf(refPoint{}), resolve, "test-mapping")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("mapped decode mismatch\n got %+v\nwant %+v", got, want)
		}
	}
	if e := prog.root.lastTab.Load(); e == nil || e.src != "renamedPoint" || e.fp != "test-mapping" {
		t.Error("materializer table was not memoized in the node's hot entry under its fingerprint")
	}
	// Unfingerprinted resolvers still decode correctly, uncached.
	got, err := Binary{}.DecodeCompiled(prog, data, reflect.TypeOf(refPoint{}), resolve, "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("unfingerprinted mapped decode mismatch")
	}

	// Source types and fingerprints alternating through the node's one
	// hot entry: every decode resolves its own table, never one left
	// behind by another source name or fingerprint.
	shifted, err := Binary{}.EncodeCompiled(nil, nil, shiftedPoint{AtX: 3, AtY: 4})
	if err != nil {
		t.Fatal(err)
	}
	both := func(target reflect.Type, source *Object, field string) string {
		if source.TypeName == "shiftedPoint" {
			return map[string]string{"X": "AtX", "Y": "AtY"}[field]
		}
		return resolve(target, source, field)
	}
	// swapped maps renamedPoint crosswise: the source name both uses,
	// under another fingerprint and another table.
	swapped := func(_ reflect.Type, _ *Object, field string) string {
		return map[string]string{"X": "PosY", "Y": "PosX"}[field]
	}
	cases := []struct {
		data    []byte
		resolve FieldResolver
		fp      string
		want    refPoint
	}{
		{data, both, "both", refPoint{X: 4.5, Y: -1}},
		{shifted, both, "both", refPoint{X: 3, Y: 4}},
		{data, swapped, "swapped", refPoint{X: -1, Y: 4.5}},
	}
	for round := 0; round < 3; round++ {
		for i, tc := range cases {
			got, err := Binary{}.DecodeCompiled(prog, tc.data, reflect.TypeOf(refPoint{}), tc.resolve, tc.fp)
			if err != nil {
				t.Fatalf("round %d case %d: %v", round, i, err)
			}
			if got != tc.want {
				t.Fatalf("round %d case %d: got %+v, want %+v", round, i, got, tc.want)
			}
		}
	}
}

// shiftedPoint is a second renamed source of refPoint.
type shiftedPoint struct {
	AtX float64
	AtY float64
}

// --- quickcheck differential -----------------------------------------

// quickFieldTypes is the palette random struct types draw from.
var quickFieldTypes = []reflect.Type{
	reflect.TypeOf(false),
	reflect.TypeOf(int(0)),
	reflect.TypeOf(int16(0)),
	reflect.TypeOf(uint32(0)),
	reflect.TypeOf(uint64(0)),
	reflect.TypeOf(float64(0)),
	reflect.TypeOf(float32(0)),
	reflect.TypeOf(""),
	reflect.TypeOf([]byte(nil)),
	reflect.TypeOf([]int(nil)),
	reflect.TypeOf([]string(nil)),
	reflect.TypeOf([3]int{}),
	reflect.TypeOf(map[string]int(nil)),
	reflect.TypeOf(map[int]string(nil)),
	reflect.TypeOf(refPoint{}),
	reflect.TypeOf([]refPoint(nil)),
}

func randQuickType(r *rand.Rand) reflect.Type {
	n := 1 + r.Intn(8)
	fields := make([]reflect.StructField, n)
	for i := range fields {
		fields[i] = reflect.StructField{
			Name: fmt.Sprintf("F%d", i),
			Type: quickFieldTypes[r.Intn(len(quickFieldTypes))],
		}
	}
	return reflect.StructOf(fields)
}

// fillRandom populates an addressable value with random content.
func fillRandom(r *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(r.Intn(2) == 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(r.Int63() - r.Int63())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(r.Uint64())
	case reflect.Float32, reflect.Float64:
		v.SetFloat(r.NormFloat64() * 1000)
	case reflect.String:
		v.SetString(randString(r))
	case reflect.Slice:
		if r.Intn(4) == 0 {
			return // keep nil
		}
		n := r.Intn(4)
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n; i++ {
			fillRandom(r, s.Index(i))
		}
		v.Set(s)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillRandom(r, v.Index(i))
		}
	case reflect.Map:
		if r.Intn(4) == 0 {
			return
		}
		n := r.Intn(4)
		m := reflect.MakeMapWithSize(v.Type(), n)
		for i := 0; i < n; i++ {
			k := reflect.New(v.Type().Key()).Elem()
			fillRandom(r, k)
			e := reflect.New(v.Type().Elem()).Elem()
			fillRandom(r, e)
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillRandom(r, v.Field(i))
		}
	}
}

// TestQuickCompiledDifferential generates random struct types and
// values and pins compiled ≡ reflective byte-for-byte on encode and
// value-for-value on decode, for both codecs.
func TestQuickCompiledDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(0xC0DEC))
	for i := 0; i < 120; i++ {
		typ := randQuickType(r)
		vv := reflect.New(typ).Elem()
		fillRandom(r, vv)
		v := vv.Interface()

		prog, err := CompileProgram(typ)
		if err != nil {
			t.Fatal(err)
		}
		if !prog.Direct() {
			t.Fatalf("iteration %d: %s should compile direct", i, typ)
		}
		for _, c := range codecs {
			want, err := c.EncodeCompiled(nil, nil, v)
			if err != nil {
				t.Fatalf("iteration %d (%s): reflective encode: %v", i, c.Name(), err)
			}
			got, err := c.EncodeCompiled(prog, nil, v)
			if err != nil {
				t.Fatalf("iteration %d (%s): compiled encode: %v", i, c.Name(), err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("iteration %d (%s): encodings differ for %s\nvalue %+v\n got %q\nwant %q",
					i, c.Name(), typ, v, got, want)
			}
			wantV, wantErr := c.DecodeCompiled(nil, want, typ, nil, "")
			gotV, gotErr := c.DecodeCompiled(prog, want, typ, nil, "")
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("iteration %d (%s): decode error mismatch: %v vs %v", i, c.Name(), gotErr, wantErr)
			}
			if wantErr == nil && !reflect.DeepEqual(gotV, wantV) {
				t.Fatalf("iteration %d (%s): decoded values differ\n got %+v\nwant %+v",
					i, c.Name(), gotV, wantV)
			}
		}
	}
}

// TestCompiledDecodePointerGraphs pins the two-pass ref-id
// assignment: aliased and cyclic pointer graphs decode through the
// compiled fast path (no fallback) with aliasing preserved, under
// both codecs.
func TestCompiledDecodePointerGraphs(t *testing.T) {
	type holder struct {
		A *refPoint
		B *refPoint
		C *refPoint
	}
	p := &refPoint{X: 1, Y: 2}
	aliased := holder{A: p, B: p} // C stays nil
	prog := mustProgram(t, holder{})
	if prog.Direct() || !prog.DecodeDirect() {
		t.Fatal("pointer-bearing type must be decode-direct only")
	}
	for _, c := range codecs {
		t.Run(c.Name(), func(t *testing.T) {
			data, err := c.EncodeCompiled(nil, nil, aliased)
			if err != nil {
				t.Fatal(err)
			}
			var got interface{}
			var ok bool
			switch cc := c.(type) {
			case Binary:
				got, ok = prog.decodeBinary(data, reflect.TypeOf(holder{}), nil, "", "")
			case SOAP:
				got, ok = prog.decodeSOAP(data, reflect.TypeOf(holder{}), nil, "", "")
			default:
				t.Fatalf("unknown codec %T", cc)
			}
			if !ok {
				t.Fatal("compiled decode bailed on an aliased pointer graph")
			}
			h := got.(holder)
			if h.A == nil || h.A != h.B {
				t.Fatal("aliasing lost")
			}
			if *h.A != *p {
				t.Fatalf("value mismatch: %+v", *h.A)
			}
			if h.C != nil {
				t.Fatal("nil pointer materialized non-nil")
			}
			want, err := c.DecodeCompiled(nil, data, reflect.TypeOf(holder{}), nil, "")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("compiled pointer decode diverged from reflective")
			}
		})
	}
}

type cyclicNode struct {
	Name string
	Next *cyclicNode
}

func TestCompiledDecodeCycles(t *testing.T) {
	a := &cyclicNode{Name: "a"}
	b := &cyclicNode{Name: "b", Next: a}
	a.Next = b
	prog := mustProgram(t, cyclicNode{})
	target := reflect.TypeOf(&cyclicNode{})
	for _, c := range codecs {
		t.Run(c.Name(), func(t *testing.T) {
			data, err := c.EncodeCompiled(nil, nil, a)
			if err != nil {
				t.Fatal(err)
			}
			var got interface{}
			var ok bool
			switch c.(type) {
			case Binary:
				got, ok = prog.decodeBinary(data, target, nil, "", "")
			case SOAP:
				got, ok = prog.decodeSOAP(data, target, nil, "", "")
			}
			if !ok {
				t.Fatal("compiled decode bailed on a cyclic graph")
			}
			ga := got.(*cyclicNode)
			if ga.Name != "a" || ga.Next == nil || ga.Next.Name != "b" {
				t.Fatalf("cycle structure lost: %+v", ga)
			}
			if ga.Next.Next != ga {
				t.Fatal("cycle not closed back to the root allocation")
			}
		})
	}
}

// TestCompiledDecodeBailsToReflective feeds the compiled decoder a
// shape it has no node graph for (a dynamic interface field) and
// checks the codec-level result still matches the pure reflective
// result through the fallback.
func TestCompiledDecodeBailsToReflective(t *testing.T) {
	type dyn struct {
		Label string
		Any   interface{}
	}
	v := dyn{Label: "x", Any: int64(7)}
	data, err := Binary{}.EncodeCompiled(nil, nil, v)
	if err != nil {
		t.Fatal(err)
	}
	prog := mustProgram(t, dyn{})
	if prog.DecodeDirect() {
		t.Fatal("interface-bearing type must not be decode-direct")
	}
	want, wantErr := Binary{}.DecodeCompiled(nil, data, reflect.TypeOf(dyn{}), nil, "")
	got, gotErr := Binary{}.DecodeCompiled(prog, data, reflect.TypeOf(dyn{}), nil, "")
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("fallback error mismatch: %v vs %v", gotErr, wantErr)
	}
	if wantErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatal("fallback decode diverged from reflective decode")
	}
}

// TestCompiledDecodeAllocsOnlyDestination pins the receive-side
// guarantee: steady-state compiled decode of a pointer-target flat
// struct allocates exactly the destination object — one allocation —
// under both codecs, with and without a (fingerprinted) resolver.
func TestCompiledDecodeAllocsOnlyDestination(t *testing.T) {
	type flat struct {
		ID   uint64
		A, B int64
		OK   bool
	}
	prog := mustProgram(t, flat{})
	target := reflect.TypeOf(&flat{})
	resolve := func(tt reflect.Type, src *Object, field string) string { return field }
	for _, c := range codecs {
		data, err := c.EncodeCompiled(nil, nil, flat{ID: 1, A: -2, B: 3, OK: true})
		if err != nil {
			t.Fatal(err)
		}
		decode := func(res FieldResolver, fp string) (interface{}, bool) {
			if _, isBin := c.(Binary); isBin {
				return prog.decodeBinary(data, target, res, fp, "")
			}
			return prog.decodeSOAP(data, target, res, fp, "")
		}
		for _, mode := range []struct {
			name string
			res  FieldResolver
			fp   string
		}{
			{"identity", nil, ""},
			{"resolver-memoized", resolve, "peer-test"},
		} {
			if _, ok := decode(mode.res, mode.fp); !ok {
				t.Fatalf("%s/%s: compiled decode bailed", c.Name(), mode.name)
			}
			allocs := testing.AllocsPerRun(200, func() {
				out, ok := decode(mode.res, mode.fp)
				if !ok || out.(*flat).A != -2 {
					t.Fatal("decode failed mid-measurement")
				}
			})
			if allocs > 1 {
				t.Errorf("%s/%s: %v allocs per decode, want 1 (the destination)", c.Name(), mode.name, allocs)
			}
		}
	}
}

// TestCompiledEncodeZeroAlloc pins the allocation-free send path: a
// map-free value encoded into a reused buffer allocates nothing.
func TestCompiledEncodeZeroAlloc(t *testing.T) {
	type flat struct {
		ID    uint64
		Name  string
		Score float64
		Tags  []string
		Blob  []byte
	}
	// Box once: the send path hands an interface{} in, so the
	// per-call conversion is not part of the encode cost.
	var v interface{} = flat{ID: 1, Name: "zero-alloc", Score: 2.5, Tags: []string{"a", "b"}, Blob: []byte{1, 2, 3}}
	prog := mustProgram(t, v)
	buf := make([]byte, 0, 4096)
	var err error
	allocs := testing.AllocsPerRun(200, func() {
		buf, _, err = prog.AppendBinary(buf[:0], v)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("compiled binary encode allocates %v times per op, want 0", allocs)
	}
}

// collections is the pinned shape with a list and a map: the shape of
// a stream object's tags and attributes.
type collections struct {
	ID    uint64
	Tags  []string
	Attrs map[string]string
}

func newCollections() collections {
	return collections{ID: 7, Tags: []string{"tag-1", "tag-22", "tag-333"},
		Attrs: map[string]string{"site": "s1", "owner": "o2", "zone": "z3"}}
}

// TestCompiledEncodeCollectionsAllocs pins the compiled encoders on a
// value with a []string and a map[string]string, under both codecs:
// a list costs nothing, and a map costs its one scratch key and one
// scratch value whatever its size (entries encode into a pooled
// buffer and sort on the stack), never an allocation per entry.
func TestCompiledEncodeCollectionsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomizes sync.Pool reuse; the entry buffer is pooled")
	}
	var v interface{} = newCollections()
	prog := mustProgram(t, v)
	buf := make([]byte, 0, 4096)
	for _, c := range codecs {
		var err error
		encode := func() {
			if _, isBin := c.(Binary); isBin {
				buf, _, err = prog.AppendBinary(buf[:0], v)
			} else {
				buf, _, err = prog.AppendSOAP(buf[:0], v)
			}
		}
		encode()
		allocs := testing.AllocsPerRun(200, encode)
		if err != nil {
			t.Fatal(err)
		}
		if allocs > 2 {
			t.Errorf("%s: compiled encode allocates %v times per op, want at most 2 (the map's scratch key and value)", c.Name(), allocs)
		}
	}
}

// TestCompiledDecodeCollectionsAllocs pins the compiled decoders on
// the same value under both codecs. Binary decode allocates 15 times:
// the destination, the list's backing array and its three strings,
// the map (two), its three keys and three values, and the map's one
// scratch key and one scratch value; never a scratch pair per entry or
// a boxed slice header. SOAP decode does not know a list's length
// up front and grows it as items arrive: two allocations more.
func TestCompiledDecodeCollectionsAllocs(t *testing.T) {
	want := map[string]float64{"binary": 15, "soap": 17}
	v := newCollections()
	prog := mustProgram(t, v)
	target := reflect.TypeOf(&collections{})
	for _, c := range codecs {
		data, err := c.EncodeCompiled(nil, nil, v)
		if err != nil {
			t.Fatal(err)
		}
		decode := func() (interface{}, bool) {
			if _, isBin := c.(Binary); isBin {
				return prog.decodeBinary(data, target, nil, "", "")
			}
			return prog.decodeSOAP(data, target, nil, "", "")
		}
		if out, ok := decode(); !ok || !reflect.DeepEqual(*out.(*collections), v) {
			t.Fatalf("%s: compiled decode = %v, %v; want %v", c.Name(), out, ok, v)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, ok := decode(); !ok {
				t.Fatal("decode failed mid-measurement")
			}
		})
		if allocs > want[c.Name()] {
			t.Errorf("%s: compiled decode allocates %v times per op, want at most %v", c.Name(), allocs, want[c.Name()])
		}
	}
}

// TestCompiledMapOrderMatchesReflective pins the compiled map
// encoders' entry order to the reflective order under both codecs,
// for maps that sort on the stack (up to 8 entries) and past it, with
// keys whose order is lexical on their text (ints, floats, bools) and
// with maps nested in map values.
func TestCompiledMapOrderMatchesReflective(t *testing.T) {
	type maps struct {
		Ints   map[int]string
		Floats map[float64]int
		Bools  map[bool]uint8
		Nested map[string]map[int]string
	}
	for _, size := range []int{0, 1, 8, 9, 30} {
		v := maps{Ints: map[int]string{}, Floats: map[float64]int{}, Bools: map[bool]uint8{},
			Nested: map[string]map[int]string{}}
		for i := 0; i < size; i++ {
			v.Ints[i*7-50] = fmt.Sprint("v", i)
			v.Floats[float64(i)/3-2] = i
			v.Bools[i%2 == 0] = uint8(i)
			inner := map[int]string{}
			for j := 0; j < i%11; j++ {
				inner[j*13] = fmt.Sprint(j)
			}
			v.Nested[fmt.Sprint("k", i)] = inner
		}
		prog := mustProgram(t, v)
		if !prog.Direct() {
			t.Fatal("map shapes must compile to a direct program")
		}
		for _, c := range codecs {
			want, err := c.EncodeCompiled(nil, nil, v)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.EncodeCompiled(prog, nil, v)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%d entries, %s: compiled and reflective encodings differ\n got %q\nwant %q", size, c.Name(), got, want)
			}
		}
	}
}
