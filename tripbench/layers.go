package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"pti"
	"pti/internal/conform"
	"pti/internal/proxy"
	"pti/internal/registry"
	"pti/internal/typedesc"
	"pti/internal/wire"
	"pti/internal/xmlenc"
)

// The layer-call timings replay a workload's own generated inputs
// through each module's public entry points, one module at a time,
// timed from the benchmark's side of the call.

// layerInput is what one workload moves and checks.
type layerInput struct {
	values []interface{}    // objects the workload sends
	pairs  [][2]interface{} // (candidate, expected) type pairs it checks
	calls  []invokeArgs     // calls for the mapped invoker
}

const layerSamples = 16

func streamLayers(seed int64) layerInput {
	in := layerInput{pairs: [][2]interface{}{{Reading{}, SensorReading{}}}, calls: invokeCalls(seed, layerSamples)}
	for _, r := range streamObjects(seed, layerSamples) {
		in.values = append(in.values, r)
	}
	return in
}

func contactLayers(seed int64) layerInput {
	rng := rand.New(rand.NewSource(seed))
	in := layerInput{calls: invokeCalls(seed, layerSamples)}
	for _, p := range contactPairs {
		in.values = append(in.values, p.gen(rng))
		in.pairs = append(in.pairs, [2]interface{}{p.pub, p.sub})
	}
	return in
}

func invokeLayers(seed int64) layerInput {
	in := layerInput{pairs: [][2]interface{}{{AuditLedger{}, Ledger{}}}, calls: invokeCalls(seed, layerSamples)}
	for _, c := range in.calls {
		in.values = append(in.values, c.entry)
	}
	return in
}

// timeWarm returns the median per-call time, in ns, of batches of
// calls f(i) with i cycling over [0, n), run for about budget after a
// warm-up call.
func timeWarm(budget time.Duration, n int, f func(i int)) float64 {
	f(0)
	batch := 1
	for batch < 1<<20 {
		start := time.Now()
		for j := 0; j < batch; j++ {
			f(j % n)
		}
		if time.Since(start) >= 100*time.Microsecond {
			break
		}
		batch *= 2
	}
	var per []float64
	deadline := time.Now().Add(budget)
	for k := 0; len(per) < 5 || (time.Now().Before(deadline) && len(per) < 1000); {
		start := time.Now()
		for j := 0; j < batch; j++ {
			f(k % n)
			k++
		}
		per = append(per, nsOf(time.Since(start))/float64(batch))
	}
	return median(per)
}

// timeCold returns the median time, in ns, of single calls that each
// start from fresh state: prep(i) builds the state untimed and returns
// the call to time.
func timeCold(budget time.Duration, n int, prep func(i int) func()) float64 {
	var per []float64
	deadline := time.Now().Add(budget)
	for i := 0; len(per) < 5 || (time.Now().Before(deadline) && len(per) < 10000); i++ {
		f := prep(i % n)
		start := time.Now()
		f()
		per = append(per, nsOf(time.Since(start)))
	}
	return median(per)
}

// layerTimings measures every layer-call metric on in, spending
// about budget on each. Values are in each metric's unit.
func layerTimings(in layerInput, budget time.Duration) (map[string]float64, error) {
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// Every type the workload registers, candidates first.
	var types []reflect.Type
	seen := map[reflect.Type]bool{}
	addType := func(v interface{}) {
		if t := reflect.TypeOf(v); !seen[t] {
			seen[t] = true
			types = append(types, t)
		}
	}
	for _, v := range in.values {
		addType(v)
	}
	for _, p := range in.pairs {
		addType(p[0])
		addType(p[1])
	}
	reg := registry.New()
	descs := make([]*typedesc.TypeDescription, len(types))
	for i, t := range types {
		e, err := reg.Register(t)
		if err != nil {
			return nil, err
		}
		descs[i] = e.Description
	}
	descOf := func(v interface{}) *typedesc.TypeDescription {
		e, _ := reg.LookupGo(reflect.TypeOf(v))
		return e.Description
	}

	out := map[string]float64{}
	us := func(ns float64) float64 { return ns / 1e3 }

	out["typedesc.describe_us"] = us(timeWarm(budget, len(types), func(i int) {
		_, err := typedesc.Describe(types[i])
		keep(err)
	}))
	out["registry.register_us"] = us(timeCold(budget, len(types), func(i int) func() {
		r := registry.New()
		return func() { _, err := r.Register(types[i]); keep(err) }
	}))
	out["registry.compile_us"] = us(timeCold(budget, len(types), func(i int) func() {
		e, err := registry.New().Register(types[i])
		if err != nil {
			keep(err)
			return func() {}
		}
		return func() {
			_, err := e.Program()
			keep(err)
			_, err = e.PlanFor(nil)
			keep(err)
		}
	}))

	xmls := make([][]byte, len(descs))
	for i, d := range descs {
		b, err := xmlenc.MarshalDescription(d)
		if err != nil {
			return nil, err
		}
		xmls[i] = b
	}
	out["xmlenc.desc_marshal_us"] = us(timeWarm(budget, len(descs), func(i int) {
		_, err := xmlenc.MarshalDescription(descs[i])
		keep(err)
	}))
	out["xmlenc.desc_unmarshal_us"] = us(timeWarm(budget, len(xmls), func(i int) {
		_, err := xmlenc.UnmarshalDescription(xmls[i])
		keep(err)
	}))

	policy := conform.WithPolicy(conform.Relaxed(1))
	cached := conform.New(reg, policy, conform.WithCache(conform.NewCache()))
	for _, p := range in.pairs {
		r, err := cached.Check(descOf(p[0]), descOf(p[1]))
		if err != nil {
			return nil, err
		}
		if !r.Conformant {
			return nil, fmt.Errorf("%T does not conform to %T: %s", p[0], p[1], r.Reason)
		}
	}
	out["conform.check_cold_us"] = us(timeCold(budget, len(in.pairs), func(i int) func() {
		c := conform.New(reg, policy, conform.WithCache(conform.NewCache()))
		cd, ed := descOf(in.pairs[i][0]), descOf(in.pairs[i][1])
		return func() { _, err := c.Check(cd, ed); keep(err) }
	}))
	out["conform.check_cached_ns"] = timeWarm(budget, len(in.pairs), func(i int) {
		_, err := cached.Check(descOf(in.pairs[i][0]), descOf(in.pairs[i][1]))
		keep(err)
	})

	// The codecs, on the workload's objects through their compiled
	// programs.
	n := len(in.values)
	progs := make([]*wire.Program, n)
	bin := make([][]byte, n)
	soap := make([][]byte, n)
	tpls := make([]*xmlenc.EnvelopeTemplate, n)
	for i, v := range in.values {
		e, _ := reg.LookupGo(reflect.TypeOf(v))
		prog, err := e.Program()
		if err != nil {
			return nil, err
		}
		progs[i] = prog
		if bin[i], err = (wire.Binary{}).EncodeCompiled(prog, nil, v); err != nil {
			return nil, err
		}
		if soap[i], err = (wire.SOAP{}).EncodeCompiled(prog, nil, v); err != nil {
			return nil, err
		}
		if tpls[i], err = e.EnvelopeTemplate(xmlenc.EncodingBinary, reg); err != nil {
			return nil, err
		}
	}
	buf := make([]byte, 0, 4096)
	codecs := []struct {
		encode, decode string
		codec          wire.Codec
		data           [][]byte
	}{
		{"wire.encode_ns", "wire.decode_ns", wire.Binary{}, bin},
		{"wire.soap_encode_ns", "wire.soap_decode_ns", wire.SOAP{}, soap},
	}
	for _, c := range codecs {
		c := c
		out[c.encode] = timeWarm(budget, n, func(i int) {
			b, err := c.codec.EncodeCompiled(progs[i], buf[:0], in.values[i])
			keep(err)
			buf = b[:0]
		})
		out[c.decode] = timeWarm(budget, n, func(i int) {
			_, err := c.codec.DecodeCompiled(progs[i], c.data[i], reflect.TypeOf(in.values[i]), nil, "")
			keep(err)
		})
	}
	out["wire.generic_decode_ns"] = timeWarm(budget, n, func(i int) {
		_, err := (wire.SOAP{}).DecodeGeneric(soap[i])
		keep(err)
	})

	docs := make([][]byte, n)
	for i := range docs {
		docs[i] = tpls[i].Append(nil, bin[i])
	}
	out["xmlenc.envelope_append_ns"] = timeWarm(budget, n, func(i int) {
		buf = tpls[i].Append(buf[:0], bin[i])
	})
	var reader xmlenc.EnvelopeReader
	var scratch []byte
	out["xmlenc.envelope_read_ns"] = timeWarm(budget, n, func(i int) {
		var err error
		_, scratch, err = reader.Unmarshal(docs[i], scratch)
		keep(err)
	})

	// The proxy layer: a mapped call through the invoke workload's
	// renamed, permuted pair, and building the invoker each delivery
	// gets.
	rt := pti.New(relaxed())
	for _, v := range []interface{}{LedgerEntry{}, AuditLedger{}, Ledger{}} {
		if err := rt.Register(v); err != nil {
			return nil, err
		}
	}
	inv, err := rt.NewInvoker(&AuditLedger{Book: "general"}, Ledger{})
	if err != nil {
		return nil, err
	}
	out["proxy.call_ns"] = timeWarm(budget, len(in.calls), func(i int) {
		c := in.calls[i]
		res, err := inv.Call("Stamp", c.note, c.entry)
		keep(err)
		if err == nil && !sameEntry(res, stamp(c.entry, c.note)) {
			keep(fmt.Errorf("proxy: Stamp returned %v", res))
		}
	})
	targets := make([]interface{}, len(in.pairs))
	plans := make([]*conform.Plan, len(in.pairs))
	for i, p := range in.pairs {
		e, _ := reg.LookupGo(reflect.TypeOf(p[1]))
		if plans[i], err = e.PlanFor(nil); err != nil {
			return nil, err
		}
		targets[i] = reflect.New(e.Type).Interface()
	}
	out["proxy.invoker_ns"] = timeWarm(budget, len(targets), func(i int) {
		_, err := proxy.NewInvokerWithPlan(targets[i], nil, plans[i])
		keep(err)
	})
	return out, firstErr
}
