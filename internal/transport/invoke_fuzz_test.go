package transport

import (
	"bytes"
	"fmt"
	"testing"

	"pti/internal/bufpool"
	"pti/internal/wire"
)

// invokeFrames returns the real request and reply frames of every
// result-typing method and of the renamed, permuted Stamp call: each
// request as the caller renders it, each reply as the server answers
// it.
func invokeFrames(tb testing.TB, server *Peer, ref *RemoteRef) [][]byte {
	tb.Helper()
	calls := map[string][]interface{}{"Stamp": {"noted", Invoice{Account: "acct-7", Amount: 1000, Rate: 0.25}}}
	for _, tc := range resultTypingCases {
		calls[tc.method] = nil
	}
	var frames [][]byte
	for method, args := range calls {
		sc := bufpool.Get()
		if _, err := ref.appendRequest(sc, method, args); err != nil {
			tb.Fatal(err)
		}
		req := append([]byte(nil), sc.B...)
		sc.B = sc.B[:0]
		if err := server.invoke(sc, req); err != nil {
			tb.Fatalf("%s: %v", method, err)
		}
		frames = append(frames, req, append([]byte(nil), sc.B...))
		bufpool.Put(sc)
	}
	return frames
}

// FuzzInvokePayload holds the invoke frames against arbitrary input —
// the server parses attacker-controlled MsgInvokeRequest bodies. The
// request parser never panics, and a frame it accepts re-renders
// byte-identically from the parts it parsed; the server's whole
// invoke path (argument decoders included) never panics on it either.
// Each input is also a reply body for the caller: for the input as one
// result and for every chunk the reply reader splits off it, whenever
// the typed result decode accepts it, the generic result path must
// yield the same value.
func FuzzInvokePayload(f *testing.F) {
	for _, s := range [][]byte{nil, {}, {0x00}, {0xFF, 0xFE, 0xFD}} {
		f.Add(s)
	}
	codecs := []wire.Codec{wire.Binary{}, wire.SOAP{}}
	servers := make([]*Peer, len(codecs))
	clients := make([]*Peer, len(codecs))
	for i, codec := range codecs {
		server, client, ref := invokePlanPair(f, codec)
		servers[i], clients[i] = server, client
		for _, frame := range invokeFrames(f, server, ref) {
			mutated := append([]byte(nil), frame...)
			mutated[len(mutated)/3] ^= 0x20
			f.Add(frame)
			f.Add(frame[:len(frame)/2])
			f.Add(mutated)
		}
		for _, tc := range resultTypingCases {
			for _, raw := range encodedResults(f, server, tc.method) {
				f.Add(raw)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if object, method, args, n, err := parseInvokeRequest(data); err == nil {
			again := appendChunk(appendChunk(nil, object), method)
			for i := 0; i < n; i++ {
				var arg []byte
				arg, args, _ = readChunk(args)
				again = appendChunk(again, arg)
			}
			if !bytes.Equal(again, data) {
				t.Fatalf("accepted frame re-renders as %q, want %q", again, data)
			}
		}
		results := [][]byte{data}
		for rest := data; len(rest) > 0; {
			raw, next, err := readChunk(rest)
			if err != nil {
				break
			}
			results, rest = append(results, raw), next
		}
		for ci, codec := range codecs {
			sc := bufpool.Get()
			_ = servers[ci].invoke(sc, data)
			bufpool.Put(sc)
			for _, raw := range results {
				for _, declared := range []string{"Invoice", "Voucher"} {
					got, ok := clients[ci].typedResult(declared, raw)
					if !ok {
						continue
					}
					want, err := genericResult(clients[ci], raw)
					if err != nil {
						t.Fatalf("%s: typed %s result accepted, generic path failed: %v", codec.Name(), declared, err)
					}
					// Printed rather than DeepEqual'd: a NaN field is
					// equal to itself here.
					if g, w := fmt.Sprintf("%T %+v", got, got), fmt.Sprintf("%T %+v", want, want); g != w {
						t.Fatalf("%s: typed %s result %s, generic %s", codec.Name(), declared, g, w)
					}
				}
			}
		}
		// The structured MsgError decoder must also hold on raw
		// bytes (it sees every error reply body).
		_ = decodeWireError(data)
	})
}
