package wire

import (
	"reflect"
	"testing"
)

// Compiled vs reflective codec benchmarks over the reference struct
// mix (see refSample): the numbers behind the wire table in
// BENCHMARKS.md. Run with `make bench-wire`.

func BenchmarkEncodeBinaryCompiled(b *testing.B) {
	prog := mustProgram(b, refStruct{})
	var v interface{} = refSample(11)
	buf := make([]byte, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, _, err = prog.AppendBinary(buf[:0], v)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeBinaryReflective(b *testing.B) {
	var v interface{} = refSample(11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Binary{}).EncodeCompiled(nil, nil, v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeSOAPCompiled(b *testing.B) {
	prog := mustProgram(b, refStruct{})
	var v interface{} = refSample(11)
	buf := make([]byte, 0, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, _, err = prog.AppendSOAP(buf[:0], v)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeSOAPReflective(b *testing.B) {
	var v interface{} = refSample(11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (SOAP{}).EncodeCompiled(nil, nil, v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeBinaryCompiled(b *testing.B) {
	prog := mustProgram(b, refStruct{})
	data, err := Binary{}.EncodeCompiled(nil, nil, refSample(11))
	if err != nil {
		b.Fatal(err)
	}
	target := reflect.TypeOf(refStruct{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Binary{}).DecodeCompiled(prog, data, target, nil, ""); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeBinaryReflective(b *testing.B) {
	data, err := Binary{}.EncodeCompiled(nil, nil, refSample(11))
	if err != nil {
		b.Fatal(err)
	}
	target := reflect.TypeOf(refStruct{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Binary{}).DecodeCompiled(nil, data, target, nil, ""); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeSOAPCompiled(b *testing.B) {
	prog := mustProgram(b, refStruct{})
	data, err := SOAP{}.EncodeCompiled(nil, nil, refSample(11))
	if err != nil {
		b.Fatal(err)
	}
	target := reflect.TypeOf(refStruct{})
	if _, ok := prog.decodeSOAP(data, target, nil, "", ""); !ok {
		b.Fatal("compiled SOAP decode bailed; benchmark would measure the fallback")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (SOAP{}).DecodeCompiled(prog, data, target, nil, ""); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeSOAPReflective(b *testing.B) {
	data, err := SOAP{}.EncodeCompiled(nil, nil, refSample(11))
	if err != nil {
		b.Fatal(err)
	}
	target := reflect.TypeOf(refStruct{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (SOAP{}).DecodeCompiled(nil, data, target, nil, ""); err != nil {
			b.Fatal(err)
		}
	}
}
