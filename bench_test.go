package pti

// One testing.B benchmark per evaluation row of the paper (Section 7)
// plus the design ablations. `go test -bench=. -benchmem`
// regenerates the full table; cmd/ptibench prints the same data with
// paper-reported values alongside.

import (
	"reflect"
	"testing"

	"pti/internal/conform"
	"pti/internal/fixtures"
	"pti/internal/proxy"
	"pti/internal/registry"
	"pti/internal/transport"
	"pti/internal/typedesc"
	"pti/internal/wire"
	"pti/internal/xmlenc"
)

// --- Section 7.1: invocation time ------------------------------------

// BenchmarkInvocationDirect is the baseline of §7.1: a direct
// getName() call (paper: 0.000142 ms).
func BenchmarkInvocationDirect(b *testing.B) {
	p := &fixtures.PersonB{PersonName: "bench"}
	b.ReportAllocs()
	var s string
	for i := 0; i < b.N; i++ {
		s = p.GetPersonName()
	}
	_ = s
}

// BenchmarkInvocationProxy is §7.1's indirect call through a dynamic
// proxy with an identity mapping (paper: 0.03 ms).
func BenchmarkInvocationProxy(b *testing.B) {
	inv, err := proxy.NewInvoker(&fixtures.PersonA{Name: "bench"}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := inv.Call("GetName"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInvocationProxyMapped is the full interoperability path:
// the proxy renames the method through a conformance mapping.
func BenchmarkInvocationProxyMapped(b *testing.B) {
	checker := conform.New(nil, conform.WithPolicy(conform.Relaxed(1)))
	cd := typedesc.MustDescribe(reflect.TypeOf(fixtures.PersonB{}))
	ed := typedesc.MustDescribe(reflect.TypeOf(fixtures.PersonA{}))
	res, err := checker.Check(cd, ed)
	if err != nil || !res.Conformant {
		b.Fatalf("fixture pair: %v %v", res, err)
	}
	inv, err := proxy.NewInvoker(&fixtures.PersonB{PersonName: "bench"}, res.Mapping)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := inv.Call("GetName"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Compiled invocation plans ---------------------------------------

// benchMappedInvoker builds the PersonB→PersonA invoker whose mapping
// renames every member, through a cached checker so the plan is the
// one memoized alongside the conformance result.
func benchMappedInvoker(b *testing.B) *proxy.Invoker {
	b.Helper()
	checker := conform.New(nil,
		conform.WithPolicy(conform.Relaxed(1)), conform.WithCache(conform.NewCache()))
	cd := typedesc.MustDescribe(reflect.TypeOf(fixtures.PersonB{}))
	ed := typedesc.MustDescribe(reflect.TypeOf(fixtures.PersonA{}))
	res, err := checker.Check(cd, ed)
	if err != nil || !res.Conformant {
		b.Fatalf("fixture pair: %v %v", res, err)
	}
	target := &fixtures.PersonB{PersonName: "bench"}
	plan, err := checker.PlanFor(res, reflect.TypeOf(target))
	if err != nil {
		b.Fatal(err)
	}
	inv, err := proxy.NewInvokerWithPlan(target, res.Mapping, plan)
	if err != nil {
		b.Fatal(err)
	}
	return inv
}

// BenchmarkInvokerCallCompiled measures the mapped proxy call through
// a compiled invocation plan: no string lookups, no per-call name
// resolution — the method index, parameter types and permutation were
// fixed when the conformance mapping was first produced.
func BenchmarkInvokerCallCompiled(b *testing.B) {
	inv := benchMappedInvoker(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inv.Call("GetName"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInvokerCallReflective is the seed's per-call name
// resolution (mapping scan + MethodByName every invocation), retained
// as Invoker.CallReflective — the baseline the compiled plan is
// measured against.
func BenchmarkInvokerCallReflective(b *testing.B) {
	inv := benchMappedInvoker(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inv.CallReflective("GetName"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckCachedParallel hammers the sharded conformance cache
// from all procs at once — the heavy-concurrent-receive scenario the
// striped read path exists for. Compare with the serial
// BenchmarkConformanceCheckCached to see per-op scaling.
func BenchmarkCheckCachedParallel(b *testing.B) {
	repo := typedesc.NewRepository()
	cd := typedesc.MustDescribe(reflect.TypeOf(fixtures.PersonB{}))
	ed := typedesc.MustDescribe(reflect.TypeOf(fixtures.PersonA{}))
	checker := conform.New(repo,
		conform.WithPolicy(conform.Relaxed(1)), conform.WithCache(conform.NewCache()))
	if r, err := checker.Check(cd, ed); err != nil || !r.Conformant {
		b.Fatalf("warmup: %v %v", r, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r, err := checker.Check(cd, ed)
			if err != nil || !r.Conformant {
				// b.Fatal must not run off the benchmark goroutine.
				b.Error("cached check failed")
				return
			}
		}
	})
}

// --- Section 7.2: type description -----------------------------------

// BenchmarkTypeDescriptionCreateSerialize is §7.2's create + XML
// serialize (paper: 6.14 ms).
func BenchmarkTypeDescriptionCreateSerialize(b *testing.B) {
	t := reflect.TypeOf(fixtures.PersonA{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, err := typedesc.Describe(t)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := xmlenc.MarshalDescription(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTypeDescriptionDeserialize is §7.2's deserialize (paper:
// 2.34 ms).
func BenchmarkTypeDescriptionDeserialize(b *testing.B) {
	doc, err := xmlenc.MarshalDescription(typedesc.MustDescribe(reflect.TypeOf(fixtures.PersonA{})))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := xmlenc.UnmarshalDescription(doc); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Section 7.3: object serialization --------------------------------

// BenchmarkObjectSerializeSOAP is §7.3's serialize (paper: 16.68 ms).
func BenchmarkObjectSerializeSOAP(b *testing.B) {
	person := fixtures.PersonA{Name: "Serial", Age: 30}
	codec := wire.SOAP{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := codec.Encode(person); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObjectDeserializeSOAP is §7.3's deserialize (paper:
// 1.32 ms).
func BenchmarkObjectDeserializeSOAP(b *testing.B) {
	codec := wire.SOAP{}
	data, err := codec.Encode(fixtures.PersonA{Name: "Serial", Age: 30})
	if err != nil {
		b.Fatal(err)
	}
	target := reflect.TypeOf(fixtures.PersonA{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := codec.Decode(data, target, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObjectSerializeBinary measures the binary alternative of
// Section 6.2.
func BenchmarkObjectSerializeBinary(b *testing.B) {
	person := fixtures.PersonA{Name: "Serial", Age: 30}
	codec := wire.Binary{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := codec.Encode(person); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObjectDeserializeBinary measures the binary alternative.
func BenchmarkObjectDeserializeBinary(b *testing.B) {
	codec := wire.Binary{}
	data, err := codec.Encode(fixtures.PersonA{Name: "Serial", Age: 30})
	if err != nil {
		b.Fatal(err)
	}
	target := reflect.TypeOf(fixtures.PersonA{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := codec.Decode(data, target, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnvelopeNested measures the full Figure 3 hybrid envelope
// for a nested object (A containing B).
func BenchmarkEnvelopeNested(b *testing.B) {
	rt := New()
	if err := rt.Register(fixtures.Contact{}); err != nil {
		b.Fatal(err)
	}
	contact := fixtures.Contact{
		Who:   fixtures.PersonA{Name: "Figure3", Age: 3},
		Where: fixtures.Address{City: "Lausanne"},
		Tags:  []string{"paper"},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Marshal(contact); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Section 7.4: conformance testing ---------------------------------

// BenchmarkConformanceCheck is §7.4's rule verification (paper:
// 12.66 ms per check, "a lower bound").
func BenchmarkConformanceCheck(b *testing.B) {
	repo := typedesc.NewRepository()
	cd := typedesc.MustDescribe(reflect.TypeOf(fixtures.PersonB{}))
	ed := typedesc.MustDescribe(reflect.TypeOf(fixtures.PersonA{}))
	checker := conform.New(repo, conform.WithPolicy(conform.Relaxed(1)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := checker.Check(cd, ed)
		if err != nil || !r.Conformant {
			b.Fatalf("check failed: %v %v", r, err)
		}
	}
}

// BenchmarkConformanceCheckCached is the memoized ablation (the
// "already received before" path of Section 6.1).
func BenchmarkConformanceCheckCached(b *testing.B) {
	repo := typedesc.NewRepository()
	cd := typedesc.MustDescribe(reflect.TypeOf(fixtures.PersonB{}))
	ed := typedesc.MustDescribe(reflect.TypeOf(fixtures.PersonA{}))
	checker := conform.New(repo,
		conform.WithPolicy(conform.Relaxed(1)), conform.WithCache(conform.NewCache()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := checker.Check(cd, ed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConformancePermutations sweeps method arity with reversed
// parameter orders (rule (iv)'s permutation search).
func BenchmarkConformancePermutations(b *testing.B) {
	for _, arity := range []int{1, 2, 3, 4, 5, 6} {
		cd, ed := permutedDescriptions(arity)
		checker := conform.New(nil, conform.WithPolicy(conform.Relaxed(2)))
		b.Run(benchName("arity", arity), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := checker.Check(cd, ed)
				if err != nil || !r.Conformant {
					b.Fatalf("check failed: %v %v", r, err)
				}
			}
		})
	}
}

// BenchmarkNameOnlyCheck measures the unsound weak rule the paper
// warns about — fast, but it trades away type safety.
func BenchmarkNameOnlyCheck(b *testing.B) {
	cd := typedesc.MustDescribe(reflect.TypeOf(fixtures.PersonB{}))
	ed := typedesc.MustDescribe(reflect.TypeOf(fixtures.PersonA{}))
	checker := conform.NewNameOnly(conform.Relaxed(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := checker.Check(cd, ed); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 1: transport protocol -------------------------------------

// BenchmarkProtocolColdReceive measures the full five-step exchange
// for a never-seen type.
func BenchmarkProtocolColdReceive(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a, bb, ca, ch := benchPeers(b, false)
		b.StartTimer()
		if err := a.SendObject(ca, fixtures.PersonB{PersonName: "cold"}); err != nil {
			b.Fatal(err)
		}
		<-ch
		b.StopTimer()
		_ = a.Close()
		_ = bb.Close()
		b.StartTimer()
	}
}

// BenchmarkProtocolWarmReceive measures the optimistic fast path:
// descriptor, conformance and code all cached.
func BenchmarkProtocolWarmReceive(b *testing.B) {
	a, bb, ca, ch := benchPeers(b, false)
	defer a.Close()
	defer bb.Close()
	if err := a.SendObject(ca, fixtures.PersonB{PersonName: "warmup"}); err != nil {
		b.Fatal(err)
	}
	<-ch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.SendObject(ca, fixtures.PersonB{PersonName: "warm", PersonAge: i}); err != nil {
			b.Fatal(err)
		}
		<-ch
	}
}

// BenchmarkTransportOptimistic and BenchmarkTransportEager compare
// the bytes/latency of the two shipping strategies (the "saves
// network resources" ablation). benchmem's B/op column approximates
// the allocation side; bytes-on-wire are reported via b.ReportMetric.
func BenchmarkTransportOptimistic(b *testing.B) {
	benchTransportMode(b, false)
}

// BenchmarkTransportEager is the non-optimistic baseline.
func BenchmarkTransportEager(b *testing.B) {
	benchTransportMode(b, true)
}

func benchTransportMode(b *testing.B, eager bool) {
	a, bb, ca, ch := benchPeers(b, eager)
	defer a.Close()
	defer bb.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.SendObject(ca, fixtures.PersonB{PersonName: "x", PersonAge: i}); err != nil {
			b.Fatal(err)
		}
		<-ch
	}
	b.StopTimer()
	total := a.Stats().Snapshot().BytesSent + bb.Stats().Snapshot().BytesSent
	b.ReportMetric(float64(total)/float64(b.N), "wire-B/op")
}

// BenchmarkDescriptorRecursiveVsFlat quantifies the non-recursive
// descriptor choice of Section 5.2: the flat Contact document vs the
// full recursive closure.
func BenchmarkDescriptorRecursiveVsFlat(b *testing.B) {
	types := []reflect.Type{
		reflect.TypeOf(fixtures.Contact{}),
		reflect.TypeOf(fixtures.PersonA{}),
		reflect.TypeOf(fixtures.Address{}),
	}
	b.Run("flat", func(b *testing.B) {
		b.ReportAllocs()
		var size int
		for i := 0; i < b.N; i++ {
			doc, err := xmlenc.MarshalDescription(typedesc.MustDescribe(types[0]))
			if err != nil {
				b.Fatal(err)
			}
			size = len(doc)
		}
		b.ReportMetric(float64(size), "doc-bytes")
	})
	b.Run("closure", func(b *testing.B) {
		b.ReportAllocs()
		var size int
		for i := 0; i < b.N; i++ {
			size = 0
			for _, t := range types {
				doc, err := xmlenc.MarshalDescription(typedesc.MustDescribe(t))
				if err != nil {
					b.Fatal(err)
				}
				size += len(doc)
			}
		}
		b.ReportMetric(float64(size), "doc-bytes")
	})
}

// --- helpers ----------------------------------------------------------

func benchPeers(b *testing.B, eager bool) (*transport.Peer, *transport.Peer, *transport.Conn, chan transport.Delivery) {
	b.Helper()
	regA := registry.New()
	if _, err := regA.Register(fixtures.PersonB{}); err != nil {
		b.Fatal(err)
	}
	opts := []transport.PeerOption{transport.WithName("a")}
	if eager {
		opts = append(opts, transport.Eager())
	}
	a := transport.NewPeer(regA, opts...)
	regB := registry.New()
	if _, err := regB.Register(fixtures.PersonA{}); err != nil {
		b.Fatal(err)
	}
	bb := transport.NewPeer(regB, transport.WithName("b"))
	ch := make(chan transport.Delivery, 1)
	if err := bb.OnReceive(fixtures.PersonA{}, func(d transport.Delivery) { ch <- d }); err != nil {
		b.Fatal(err)
	}
	ca, _ := transport.Connect(a, bb)
	return a, bb, ca, ch
}

func permutedDescriptions(arity int) (cand, exp *typedesc.TypeDescription) {
	prims := []string{"int", "string", "float64", "bool", "int64", "uint"}
	fwd := make([]typedesc.TypeRef, arity)
	rev := make([]typedesc.TypeRef, arity)
	for i := 0; i < arity; i++ {
		fwd[i] = typedesc.TypeRef{Name: prims[i%len(prims)]}
		rev[arity-1-i] = fwd[i]
	}
	cand = &typedesc.TypeDescription{
		Name: "SvcA", Kind: typedesc.KindStruct,
		Methods: []typedesc.Method{{Name: "Do", Params: fwd}},
	}
	exp = &typedesc.TypeDescription{
		Name: "SvcB", Kind: typedesc.KindStruct,
		Methods: []typedesc.Method{{Name: "Do", Params: rev}},
	}
	return cand, exp
}

func benchName(prefix string, n int) string {
	return prefix + "-" + string(rune('0'+n))
}

// BenchmarkIDLParse and BenchmarkIDLFormat measure the lingua-franca
// definition route (the paper's Section 2.6 comparison point).
func BenchmarkIDLParse(b *testing.B) {
	d := typedesc.MustDescribe(reflect.TypeOf(fixtures.Employee{}))
	src := FormatIDL(d)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseIDL(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIDLFormat measures rendering a description to IDL.
func BenchmarkIDLFormat(b *testing.B) {
	d := typedesc.MustDescribe(reflect.TypeOf(fixtures.Employee{}))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = FormatIDL(d)
	}
}
