package main

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"pti"
	"pti/internal/benchfmt"
	"pti/internal/conform"
	"pti/internal/proxy"
	"pti/internal/registry"
	"pti/internal/wire"
	"pti/internal/xmlenc"
)

// recvSubject is the receive-path benchmark shape: the same field mix
// the wire package's differential tests pin (strings, numbers, bools,
// bytes, slices, nested structs), heavy enough that decode cost is
// dominated by real materialization work.
type recvPoint struct {
	X, Y float64
}

type recvSubject struct {
	ID     uint64
	Name   string
	Active bool
	Score  float64
	Tags   []string
	Counts []int32
	Blob   []byte
	Origin recvPoint
	Path   []recvPoint
}

func recvSample() recvSubject {
	return recvSubject{
		ID:     77,
		Name:   "receive-path subject <&> 'quoted'",
		Active: true,
		Score:  3.25,
		Tags:   []string{"alpha", "beta", "gamma"},
		Counts: []int32{1, -2, 3, -4},
		Blob:   []byte{0, 1, 2, 0xfe, 0xff},
		Origin: recvPoint{X: 1.5, Y: -2.5},
		Path:   []recvPoint{{X: 0, Y: 0}, {X: 3, Y: -3}, {X: 9, Y: 9}},
	}
}

// recvRow is one compiled-vs-reflective receive measurement.
type recvRow struct {
	CompiledNs   float64 `json:"compiled_ns"`
	ReflectiveNs float64 `json:"reflective_ns"`
	Speedup      float64 `json:"speedup"`
	AllocsPerOp  float64 `json:"allocs_per_op,omitempty"`
}

// recvSOAPFloor is the acceptance bar for the compiled SOAP decode:
// it must beat the reflective pipeline by at least this factor. The
// other receive rows must merely win outright (>= 1x) — timing noise
// headroom without letting the compiled path silently lose.
const recvSOAPFloor = 2.0

// recvGates: every compiled row must beat its reflective counterpart
// (SOAP by the floor), and the end-to-end allocation count must not
// grow past the committed baseline's.
func recvGates() []benchfmt.Gate {
	gates := []benchfmt.Gate{
		benchfmt.NewRatio("recv/soap-decode", "compiled floor", "reflective_ns", ">=", recvSOAPFloor, "recv/soap-decode", "compiled_ns"),
		benchfmt.NewRatio("recv/binary-decode", "compiled wins", "reflective_ns", ">=", 1, "recv/binary-decode", "compiled_ns"),
		benchfmt.NewRatio("recv/unmarshal-e2e", "compiled wins", "reflective_ns", ">=", 1, "recv/unmarshal-e2e", "compiled_ns"),
	}
	allocs := benchfmt.NewRatio("recv/unmarshal-e2e", "allocs within baseline", "allocs_per_op", "<=", 1, "recv/unmarshal-e2e", "allocs_per_op")
	allocs.Of.Baseline = true
	return append(gates, allocs)
}

// expRecv measures the PR 7 receive path: per-codec compiled decode
// (the wire program materializing straight into the destination
// struct) against the reflective authority (generic value tree +
// ToGo), and the facade's end-to-end Unmarshal — envelope parse,
// conformance mapping and decode — warm, where the learned envelope
// shape and the compiled decoder leave only the destination object's
// allocations standing.
func expRecv(reps int) ([]benchfmt.Row, error) {
	iters := 2000 * reps
	sample := recvSample()
	typ := reflect.TypeOf(&recvSubject{})
	prog, err := wire.CompileProgram(reflect.TypeOf(recvSubject{}))
	if err != nil {
		return nil, err
	}

	var rows []benchfmt.Row
	fmt.Printf("  %-18s %12s %12s %9s %8s\n",
		"row", "compiled", "reflective", "speedup", "allocs")

	for _, codec := range []wire.Codec{wire.SOAP{}, wire.Binary{}} {
		data, err := codec.Encode(sample)
		if err != nil {
			return nil, err
		}
		// One checked round: the fast path must engage and agree with
		// the reflective decode before its timing means anything.
		out, ok := codec.DecodeObjectFast(prog, data, typ, nil, "bench", "recvSubject")
		if !ok {
			return nil, fmt.Errorf("%s: compiled decode did not engage", codec.Name())
		}
		if got := out.(*recvSubject); !reflect.DeepEqual(*got, sample) {
			return nil, fmt.Errorf("%s: compiled decode diverged: %+v", codec.Name(), got)
		}
		compiled := measure(reps, iters, func() {
			codec.DecodeObjectFast(prog, data, typ, nil, "bench", "recvSubject")
		})
		reflective := measure(reps, iters, func() {
			gv, err := codec.DecodeGeneric(data)
			if err != nil {
				panic(err)
			}
			if _, err := wire.ToGo(gv.(*wire.Object), typ, nil); err != nil {
				panic(err)
			}
		})
		rows = append(rows, recvRowOf(codec.Name()+"-decode", compiled, reflective, 0))
	}

	// End to end through the facade: compiled Unmarshal (warm caches)
	// vs the reflective pipeline it falls back to.
	rt := pti.New()
	if err := rt.Register(recvSubject{}); err != nil {
		return nil, err
	}
	envData, err := rt.Marshal(sample)
	if err != nil {
		return nil, err
	}
	var expected interface{} = recvSubject{}
	for i := 0; i < 4; i++ { // warm the envelope shape + compiled caches
		if _, _, err := rt.Unmarshal(envData, expected); err != nil {
			return nil, err
		}
	}
	compiled := measure(reps, iters, func() {
		if _, _, err := rt.Unmarshal(envData, expected); err != nil {
			panic(err)
		}
	})
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := rt.Unmarshal(envData, expected); err != nil {
			panic(err)
		}
	})

	reg := registry.New()
	entry, err := reg.Register(recvSubject{})
	if err != nil {
		return nil, err
	}
	binder := proxy.NewBinder(reg, conform.New(reg, conform.WithPolicy(conform.Relaxed(1))))
	reflective := measure(reps, iters, func() {
		env, err := xmlenc.UnmarshalEnvelope(envData)
		if err != nil {
			panic(err)
		}
		codec, err := wire.ByName(string(env.Encoding))
		if err != nil {
			panic(err)
		}
		gv, err := codec.DecodeGeneric(env.Payload)
		if err != nil {
			panic(err)
		}
		if _, _, err := binder.Bind(gv.(*wire.Object), entry.Description.Ref()); err != nil {
			panic(err)
		}
	})
	return append(rows, recvRowOf("unmarshal-e2e", compiled, reflective, allocs)), nil
}

func recvRowOf(name string, compiled, reflective time.Duration, allocs float64) benchfmt.Row {
	r := recvRow{
		CompiledNs:   float64(compiled.Nanoseconds()),
		ReflectiveNs: float64(reflective.Nanoseconds()),
		AllocsPerOp:  allocs,
	}
	if r.CompiledNs > 0 {
		r.Speedup = r.ReflectiveNs / r.CompiledNs
	}
	note := ""
	if allocs > 0 {
		note = fmt.Sprintf("%8.1f", allocs)
	}
	fmt.Printf("  %-18s %12s %12s %8.1fx %s\n",
		name, fmtDur(compiled), fmtDur(reflective), r.Speedup, note)
	return benchRow("recv", name, r)
}
