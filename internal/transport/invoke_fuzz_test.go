package transport

import (
	"fmt"
	"testing"

	"pti/internal/wire"
)

// invokeFuzzSeeds are drawn from the same shapes the remoting tests
// exercise: valid payloads and replies under both codecs,
// truncations, bit flips and raw garbage.
func invokeFuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	seeds := [][]byte{
		nil,
		{},
		{0x00},
		{0xFF, 0xFE, 0xFD},
	}
	payload := invokePayload{
		Object: "svc",
		Method: "Combine",
		Args:   [][]byte{[]byte("\x01x"), nil, []byte("arg")},
	}
	reply := invokeReply{
		Results: [][]byte{[]byte("ok")},
		Failure: "transport: remote method panicked: Boom: kaboom",
		Code:    int(codePanic),
	}
	for _, codec := range []wire.Codec{wire.Binary{}, wire.SOAP{}} {
		for _, v := range []interface{}{payload, reply} {
			data, err := codec.Encode(v)
			if err != nil {
				tb.Fatal(err)
			}
			seeds = append(seeds, data, data[:len(data)/2])
			mutated := append([]byte(nil), data...)
			mutated[len(mutated)/3] ^= 0x20
			seeds = append(seeds, mutated)
		}
	}
	return seeds
}

// FuzzInvokePayload asserts the decode side of the invoke wire forms
// never panics on arbitrary input, and that whatever a codec accepts
// re-encodes cleanly — the server feeds attacker-controlled bytes
// from MsgInvokeRequest straight into this path. Each input is also
// one result body for the caller: whenever the typed result decode
// accepts it, the generic result path must yield the same value.
func FuzzInvokePayload(f *testing.F) {
	for _, s := range invokeFuzzSeeds(f) {
		f.Add(s)
	}
	codecs := []wire.Codec{wire.Binary{}, wire.SOAP{}}
	clients := make([]*Peer, len(codecs))
	for i, codec := range codecs {
		server, client, _ := invokePlanPair(f, codec)
		clients[i] = client
		for _, tc := range resultTypingCases {
			for _, raw := range encodedResults(f, server, tc.method) {
				f.Add(raw)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for ci, codec := range codecs {
			for _, declared := range []string{"Invoice", "Voucher"} {
				got, ok := clients[ci].typedResult(declared, data)
				if !ok {
					continue
				}
				want, err := genericResult(clients[ci], data)
				if err != nil {
					t.Fatalf("%s: typed %s result accepted, generic path failed: %v", codec.Name(), declared, err)
				}
				// Printed rather than DeepEqual'd: a NaN field is
				// equal to itself here.
				if g, w := fmt.Sprintf("%T %+v", got, got), fmt.Sprintf("%T %+v", want, want); g != w {
					t.Fatalf("%s: typed %s result %s, generic %s", codec.Name(), declared, g, w)
				}
			}
			if out, err := codec.DecodeCompiled(invokePayloadProg, data, invokePayloadType, nil, ""); err == nil {
				p, ok := out.(invokePayload)
				if !ok {
					t.Fatalf("decode produced %T, not invokePayload", out)
				}
				if _, err := codec.EncodeCompiled(invokePayloadProg, nil, p); err != nil {
					t.Fatalf("accepted payload failed to re-encode: %v", err)
				}
			}
			if out, err := codec.DecodeCompiled(invokeReplyProg, data, invokeReplyType, nil, ""); err == nil {
				r, ok := out.(invokeReply)
				if !ok {
					t.Fatalf("decode produced %T, not invokeReply", out)
				}
				if _, err := codec.EncodeCompiled(invokeReplyProg, nil, r); err != nil {
					t.Fatalf("accepted reply failed to re-encode: %v", err)
				}
			}
			// The structured MsgError decoder must also hold on raw
			// bytes (it sees every error reply body).
			_ = decodeWireError(data)
		}
	})
}
