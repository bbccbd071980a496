package wire

import (
	"reflect"
	"testing"
)

// The receive-path entry points gate on the stream's embedded
// top-level type name: a payload claiming to be srcName on the
// envelope but carrying a different embedded name must fall to the
// reflective pipeline, where Bind is the authority for the mismatch.
func TestDecodeObjectFastNameGate(t *testing.T) {
	prog := mustProgram(t, refStruct{})
	typ := reflect.TypeOf(&refStruct{})
	want := refSample(3)
	for _, c := range []Codec{SOAP{}, Binary{}} {
		data, err := c.EncodeCompiled(nil, nil, want)
		if err != nil {
			t.Fatalf("%s: Encode: %v", c.Name(), err)
		}

		// Matching name: the fast path decodes the destination object.
		out, ok := c.DecodeObjectFast(prog, data, typ, nil, "", "refStruct")
		if !ok {
			t.Fatalf("%s: matching srcName did not engage", c.Name())
		}
		if got := out.(*refStruct); !reflect.DeepEqual(*got, want) {
			t.Errorf("%s: decoded %+v, want %+v", c.Name(), got, want)
		}

		// Mismatched name: bail, no error, no value.
		if _, ok := c.DecodeObjectFast(prog, data, typ, nil, "", "SomethingElse"); ok {
			t.Errorf("%s: mismatched srcName engaged the fast path", c.Name())
		}

		// Empty srcName: the object entry points refuse outright (the
		// caller must always know the envelope's declared type).
		if _, ok := c.DecodeObjectFast(prog, data, typ, nil, "", ""); ok {
			t.Errorf("%s: empty srcName engaged the fast path", c.Name())
		}

		// Nil program: nothing compiled to run.
		if _, ok := c.DecodeObjectFast(nil, data, typ, nil, "", "refStruct"); ok {
			t.Errorf("%s: nil program engaged the fast path", c.Name())
		}
	}
}

// A nil top-level value cannot satisfy the name gate — there is no
// embedded object name to compare — so the object entry points bail
// and let the reflective pipeline decide what a nil payload means.
func TestDecodeObjectFastNilTopLevel(t *testing.T) {
	prog := mustProgram(t, refStruct{})
	typ := reflect.TypeOf(&refStruct{})
	for _, c := range []Codec{SOAP{}, Binary{}} {
		data, err := c.EncodeCompiled(nil, nil, nil)
		if err != nil {
			t.Fatalf("%s: Encode(nil): %v", c.Name(), err)
		}
		if _, ok := c.DecodeObjectFast(prog, data, typ, nil, "", "refStruct"); ok {
			t.Errorf("%s: nil top-level engaged the fast path", c.Name())
		}
	}
}

// A non-struct root program (e.g. a slice) can never match an object
// envelope; the gate must refuse before touching the stream.
func TestDecodeObjectFastNonStructRoot(t *testing.T) {
	prog, err := CompileProgram(reflect.TypeOf([]int{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []Codec{SOAP{}, Binary{}} {
		data, err := c.EncodeCompiled(nil, nil, []int{1, 2, 3})
		if err != nil {
			t.Fatalf("%s: Encode: %v", c.Name(), err)
		}
		if _, ok := c.DecodeObjectFast(prog, data, reflect.TypeOf(&[]int{}), nil, "", "ints"); ok {
			t.Errorf("%s: non-struct root engaged the fast path", c.Name())
		}
	}
}
