package main

import (
	"fmt"
	"reflect"
	"time"

	"pti/internal/conform"
	"pti/internal/fixtures"
	"pti/internal/proxy"
	"pti/internal/registry"
	"pti/internal/transport"
	"pti/internal/typedesc"
	"pti/internal/wire"
	"pti/internal/xmlenc"
)

// exp71 reproduces Section 7.1: "100 repetitions of 1000000
// invocations to the method either directly or indirectly (using a
// dynamic proxy)" on Person.getName(). Paper: direct 0.000142 ms,
// indirect 0.03 ms (≈211x).
func exp71(reps int) error {
	person := &fixtures.PersonB{PersonName: "bench", PersonAge: 1}
	checker := conform.New(nil, conform.WithPolicy(conform.Relaxed(1)))
	cd := typedesc.MustDescribe(reflect.TypeOf(fixtures.PersonB{}))
	ed := typedesc.MustDescribe(reflect.TypeOf(fixtures.PersonA{}))
	res, err := checker.Check(cd, ed)
	if err != nil {
		return err
	}
	if !res.Conformant {
		return fmt.Errorf("fixture pair should conform: %s", res.Reason)
	}
	inv, err := proxy.NewInvoker(person, res.Mapping)
	if err != nil {
		return err
	}

	var sink string
	direct := measure(reps, 1_000_000, func() { sink = person.GetPersonName() })
	indirect := measure(reps, 200_000, func() {
		out, _ := inv.Call("GetName")
		sink, _ = out[0].(string)
	})
	_ = sink

	row("direct getName()", "142ns", fmtDur(direct), "")
	row("via dynamic proxy", "30µs (211x)", fmt.Sprintf("%s (%s)", fmtDur(indirect), ratio(indirect, direct)),
		"shape: proxy orders of magnitude slower")
	return nil
}

// exp72 reproduces Section 7.2: creation + XML serialization of the
// Person type description, and its deserialization. Paper: 6.14 ms
// create+serialize, 2.34 ms deserialize (ratio ≈2.6).
func exp72(reps int) error {
	personType := reflect.TypeOf(fixtures.PersonA{})
	var doc []byte
	createSerialize := measure(reps, 2_000, func() {
		d, err := typedesc.Describe(personType,
			typedesc.WithConstructor("NewPersonA", fixtures.NewPersonA))
		if err != nil {
			panic(err)
		}
		doc, err = xmlenc.MarshalDescription(d)
		if err != nil {
			panic(err)
		}
	})
	deserialize := measure(reps, 2_000, func() {
		if _, err := xmlenc.UnmarshalDescription(doc); err != nil {
			panic(err)
		}
	})
	row("create + XML-serialize description", "6.14ms", fmtDur(createSerialize), "")
	row("deserialize description", "2.34ms", fmtDur(deserialize),
		fmt.Sprintf("shape: serialize/deserialize = %s (paper 2.6x)", ratio(createSerialize, deserialize)))
	fmt.Printf("  description document size: %d bytes\n", len(doc))
	return nil
}

// exp73 reproduces Section 7.3: (de)serializing a Person instance
// 1000 times. Paper (SOAP): serialize 16.68 ms, deserialize 1.32 ms.
// The binary alternative of Section 6.2 is measured alongside.
func exp73(reps int) error {
	person := fixtures.PersonA{Name: "Serial", Age: 30}
	soap := wire.SOAP{}
	bin := wire.Binary{}

	soapData, err := soap.Encode(person)
	if err != nil {
		return err
	}
	binData, err := bin.Encode(person)
	if err != nil {
		return err
	}
	target := reflect.TypeOf(fixtures.PersonA{})

	soapSer := measure(reps, 5_000, func() { _, _ = soap.Encode(person) })
	soapDe := measure(reps, 5_000, func() { _, _ = soap.Decode(soapData, target, nil) })
	binSer := measure(reps, 20_000, func() { _, _ = bin.Encode(person) })
	binDe := measure(reps, 20_000, func() { _, _ = bin.Decode(binData, target, nil) })

	row("SOAP serialize object", "16.68ms", fmtDur(soapSer), "")
	row("SOAP deserialize object", "1.32ms", fmtDur(soapDe),
		fmt.Sprintf("measured serialize/deserialize = %.2f (paper 12.6x; see EXPERIMENTS.md)",
			float64(soapSer)/float64(soapDe)))
	row("binary serialize object", "(alternative)", fmtDur(binSer), "")
	row("binary deserialize object", "(alternative)", fmtDur(binDe),
		fmt.Sprintf("binary vs SOAP payload: %d vs %d bytes", len(binData), len(soapData)))
	return nil
}

// exp74 reproduces Section 7.4: "100 times 1000 verifications" of the
// implicit structural conformance rules on simple types. Paper:
// 12.66 ms per verification (a lower bound).
func exp74(reps int) error {
	repo := typedesc.NewRepository()
	for _, t := range []reflect.Type{
		reflect.TypeOf(fixtures.PersonA{}), reflect.TypeOf(fixtures.PersonB{}),
	} {
		if err := repo.Add(typedesc.MustDescribe(t)); err != nil {
			return err
		}
	}
	cd, _ := repo.Resolve(typedesc.TypeRef{Name: "PersonB"})
	ed, _ := repo.Resolve(typedesc.TypeRef{Name: "PersonA"})

	cold := conform.New(repo, conform.WithPolicy(conform.Relaxed(1)))
	coldPerOp := measure(reps, 10_000, func() {
		if _, err := cold.Check(cd, ed); err != nil {
			panic(err)
		}
	})

	cache := conform.NewCache()
	warm := conform.New(repo, conform.WithPolicy(conform.Relaxed(1)), conform.WithCache(cache))
	warmPerOp := measure(reps, 100_000, func() {
		if _, err := warm.Check(cd, ed); err != nil {
			panic(err)
		}
	})

	row("implicit structural conformance check", "12.66ms", fmtDur(coldPerOp), "full rule evaluation")
	row("with result cache (ablation)", "n/a", fmtDur(warmPerOp),
		fmt.Sprintf("cache speedup %s", ratio(coldPerOp, warmPerOp)))
	return nil
}

// expTransport reproduces the Figure 1 protocol costs and the
// optimistic-vs-eager network ablation.
func expTransport(reps int) error {
	mkSender := func(eager bool) *transport.Peer {
		reg := registry.New()
		if _, err := reg.Register(fixtures.PersonB{}); err != nil {
			panic(err)
		}
		opts := []transport.PeerOption{transport.WithName("a")}
		if eager {
			opts = append(opts, transport.Eager())
		}
		return transport.NewPeer(reg, opts...)
	}
	mkReceiver := func() (*transport.Peer, chan transport.Delivery) {
		reg := registry.New()
		if _, err := reg.Register(fixtures.PersonA{}); err != nil {
			panic(err)
		}
		p := transport.NewPeer(reg, transport.WithName("b"))
		ch := make(chan transport.Delivery, 1024)
		if err := p.OnReceive(fixtures.PersonA{}, func(d transport.Delivery) { ch <- d }); err != nil {
			panic(err)
		}
		return p, ch
	}

	// Cold receive: full 5-step exchange.
	var coldTotal time.Duration
	for r := 0; r < reps; r++ {
		a := mkSender(false)
		b, ch := mkReceiver()
		ca, _ := transport.Connect(a, b)
		start := time.Now()
		if err := a.SendObject(ca, fixtures.PersonB{PersonName: "cold"}); err != nil {
			return err
		}
		<-ch
		coldTotal += time.Since(start)
		_ = a.Close()
		_ = b.Close()
	}
	cold := coldTotal / time.Duration(reps)

	// Warm receive: descriptor, conformance and code cached.
	a := mkSender(false)
	b, ch := mkReceiver()
	ca, _ := transport.Connect(a, b)
	if err := a.SendObject(ca, fixtures.PersonB{PersonName: "warmup"}); err != nil {
		return err
	}
	<-ch
	const warmN = 500
	start := time.Now()
	for i := 0; i < warmN; i++ {
		if err := a.SendObject(ca, fixtures.PersonB{PersonName: "warm", PersonAge: i}); err != nil {
			return err
		}
		<-ch
	}
	warm := time.Since(start) / warmN
	warmStats := b.Stats().Snapshot()
	_ = a.Close()
	_ = b.Close()

	row("cold receive (Figure 1 steps 1-5)", "n/a", fmtDur(cold), "includes 2 round trips")
	row("warm receive (cached)", "n/a", fmtDur(warm),
		fmt.Sprintf("type-info requests over %d objects: %d", warmN+1, warmStats.TypeInfoRequests))

	// Bytes on wire: optimistic vs eager across object counts.
	fmt.Println("  bytes on wire (sender+receiver), PersonB objects:")
	fmt.Printf("    %-10s %-14s %-14s %s\n", "objects", "optimistic", "eager", "savings")
	for _, n := range []int{1, 2, 5, 10, 50} {
		opt := transportBytes(false, n)
		eag := transportBytes(true, n)
		fmt.Printf("    %-10d %-14d %-14d %.1f%%\n", n, opt, eag, 100*(1-float64(opt)/float64(eag)))
	}
	return nil
}

func transportBytes(eager bool, objects int) uint64 {
	reg := registry.New()
	if _, err := reg.Register(fixtures.PersonB{}); err != nil {
		panic(err)
	}
	opts := []transport.PeerOption{transport.WithName("a")}
	if eager {
		opts = append(opts, transport.Eager())
	}
	a := transport.NewPeer(reg, opts...)
	regB := registry.New()
	if _, err := regB.Register(fixtures.PersonA{}); err != nil {
		panic(err)
	}
	b := transport.NewPeer(regB, transport.WithName("b"))
	ch := make(chan transport.Delivery, objects)
	if err := b.OnReceive(fixtures.PersonA{}, func(d transport.Delivery) { ch <- d }); err != nil {
		panic(err)
	}
	ca, _ := transport.Connect(a, b)
	for i := 0; i < objects; i++ {
		if err := a.SendObject(ca, fixtures.PersonB{PersonName: "x", PersonAge: i}); err != nil {
			panic(err)
		}
		<-ch
	}
	total := a.Stats().Snapshot().BytesSent + b.Stats().Snapshot().BytesSent
	_ = a.Close()
	_ = b.Close()
	return total
}

// expAblations measures the reproduction's own design choices: the
// argument-permutation search, the full conformance rule against the
// unsound name-only one, and flat against recursive descriptors.
func expAblations(reps int) error {
	// Permutation search cost by arity.
	fmt.Println("  argument-permutation search (method match per arity):")
	for arity := 1; arity <= 6; arity++ {
		cd, ed := permutedPair(arity)
		checker := conform.New(nil, conform.WithPolicy(conform.Relaxed(2)))
		perOp := measure(reps, 2_000, func() {
			if _, err := checker.Check(cd, ed); err != nil {
				panic(err)
			}
		})
		noPerm := conform.Relaxed(2)
		noPerm.NoPermutations = true
		checkerNP := conform.New(nil, conform.WithPolicy(noPerm))
		perOpNP := measure(reps, 2_000, func() {
			if _, err := checkerNP.Check(cd, cd); err != nil {
				panic(err)
			}
		})
		fmt.Printf("    arity %d: with permutations %-10s identity-only %-10s\n",
			arity, fmtDur(perOp), fmtDur(perOpNP))
	}

	// Name-only vs full rule cost (the unsound weak rule).
	repo := typedesc.NewRepository()
	cd := typedesc.MustDescribe(reflect.TypeOf(fixtures.PersonB{}))
	ed := typedesc.MustDescribe(reflect.TypeOf(fixtures.PersonA{}))
	full := conform.New(repo, conform.WithPolicy(conform.Relaxed(1)))
	nameOnly := conform.NewNameOnly(conform.Relaxed(1))
	fullPerOp := measure(reps, 10_000, func() { _, _ = full.Check(cd, ed) })
	namePerOp := measure(reps, 100_000, func() { _, _ = nameOnly.Check(cd, ed) })
	row("full rule vs name-only (unsound)", "n/a",
		fmt.Sprintf("%s vs %s", fmtDur(fullPerOp), fmtDur(namePerOp)),
		"the paper accepts the full-rule cost to keep type safety")

	// Non-recursive descriptors: flat document vs recursive closure.
	contact := typedesc.MustDescribe(reflect.TypeOf(fixtures.Contact{}))
	flatDoc, err := xmlenc.MarshalDescription(contact)
	if err != nil {
		return err
	}
	closure := 0
	for _, t := range []reflect.Type{
		reflect.TypeOf(fixtures.Contact{}), reflect.TypeOf(fixtures.PersonA{}),
		reflect.TypeOf(fixtures.Address{}),
	} {
		doc, err := xmlenc.MarshalDescription(typedesc.MustDescribe(t))
		if err != nil {
			return err
		}
		closure += len(doc)
	}
	row("flat descriptor (Contact) vs recursive closure", "flat by design",
		fmt.Sprintf("%dB vs %dB", len(flatDoc), closure),
		"nested descriptions fetched only on demand")
	return nil
}

// permutedPair builds two single-method types of the given arity with
// reversed parameter orders, as descriptions.
func permutedPair(arity int) (cand, exp *typedesc.TypeDescription) {
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
