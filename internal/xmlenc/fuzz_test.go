package xmlenc

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// FuzzUnmarshalEnvelope differentially fuzzes the package's envelope
// decoders against an encoding/xml-only reference: on any input,
// across repeated calls (so the learned-shape fast path is
// exercised), the EnvelopeReader and the reference must agree on
// both the error outcome and the parsed envelope. A document the
// canonical scanner accepts must be exactly what encoding/xml renders
// for the scanned DTO.
func FuzzUnmarshalEnvelope(f *testing.F) {
	env := templateFixture()
	env.Payload = []byte("payload \x00\x01\x02")
	for _, enc := range []PayloadEncoding{EncodingBinary, EncodingSOAP} {
		env.Encoding = enc
		doc, err := MarshalEnvelope(env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
		f.Add(doc[:len(doc)/2])
		m := append([]byte(nil), doc...)
		m[len(doc)/3] ^= 0x11
		f.Add(m)
	}
	f.Add([]byte("<Message><TypeInfo/></Message>"))
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		if x, ok := scanEnvelope(data); ok {
			if canon := oracleEncode(t, x); !bytes.Equal(canon, data) {
				t.Fatalf("scanner accepted a non-canonical document\n got %q\ncanonical %q", data, canon)
			}
		}
		er := &EnvelopeReader{}
		var scratch []byte
		for round := 0; round < 2; round++ {
			want, wantErr := referenceUnmarshalEnvelope(data)
			var got *Envelope
			var gotErr error
			got, scratch, gotErr = er.Unmarshal(data, scratch)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("round %d: error mismatch reader=%v reference=%v", round, gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if !envEqual(got, want) {
				t.Fatalf("round %d: envelopes diverge\n reader %+v\n reference %+v", round, got, want)
			}
		}
	})
}

// FuzzUnmarshalDescription differentially fuzzes UnmarshalDescription
// against an encoding/xml-only reference: on any input the two must
// agree on the error and on the decoded description. A document the
// canonical scanner accepts must be exactly what encoding/xml renders
// for the scanned DTO. The seed corpus is in
// testdata/fuzz/FuzzUnmarshalDescription.
func FuzzUnmarshalDescription(f *testing.F) {
	f.Add([]byte("<TypeDescription/>"))
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		if x, ok := scanDescription(data); ok {
			if canon := oracleEncode(t, x); !bytes.Equal(canon, data) {
				t.Fatalf("scanner accepted a non-canonical document\n got %q\ncanonical %q", data, canon)
			}
		}
		got, gotErr := UnmarshalDescription(data)
		want, wantErr := referenceUnmarshalDescription(data)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("error mismatch: got %v, reference %v", gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("descriptions diverge\n got %+v\n reference %+v", got, want)
		}
	})
}
