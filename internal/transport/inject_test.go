package transport

import (
	"bufio"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pti/internal/fixtures"
)

// The injection suite replays the committed fuzz crasher corpora
// through live fabric links: every payload that once broke (or
// stressed) a decoder in isolation is fired at a running peer as a
// real wire frame, and the peer must shrug — a typed EventDropped
// where the protocol calls for one, no panic, and undisturbed service
// for the well-formed traffic that follows.

// loadFuzzCorpus parses Go fuzz corpus files (line 1 "go test fuzz
// v1", then one quoted []byte literal per input) and returns the raw
// payloads.
func loadFuzzCorpus(t *testing.T, dir string) [][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("corpus dir %s: %v", dir, err)
	}
	var payloads [][]byte
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		first := true
		for sc.Scan() {
			line := sc.Text()
			if first {
				first = false
				if !strings.HasPrefix(line, "go test fuzz") {
					t.Fatalf("%s/%s: not a fuzz corpus file: %q", dir, e.Name(), line)
				}
				continue
			}
			open := strings.Index(line, `("`)
			close := strings.LastIndex(line, `")`)
			if !strings.HasPrefix(line, "[]byte(") || open < 0 || close <= open {
				continue
			}
			s, err := strconv.Unquote(line[open+1 : close+1])
			if err != nil {
				t.Fatalf("%s/%s: bad literal: %v", dir, e.Name(), err)
			}
			payloads = append(payloads, []byte(s))
		}
		_ = f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	if len(payloads) == 0 {
		t.Fatalf("corpus dir %s: no payloads", dir)
	}
	return payloads
}

// injectionCorpora gathers every committed crasher corpus that can
// masquerade as a frame body: invoke payloads, envelope bodies, and
// codec payloads (fired as envelope bodies, where the decoder stack
// sees them after envelope parsing fails fast).
func injectionCorpora(t *testing.T) map[string][][]byte {
	t.Helper()
	return map[string][][]byte{
		"invoke":   loadFuzzCorpus(t, "testdata/fuzz/FuzzInvokePayload"),
		"envelope": loadFuzzCorpus(t, "../xmlenc/testdata/fuzz/FuzzUnmarshalEnvelope"),
		"soap":     loadFuzzCorpus(t, "../wire/testdata/fuzz/FuzzDecodeSOAP"),
		"binary":   loadFuzzCorpus(t, "../wire/testdata/fuzz/FuzzDecodeBinary"),
	}
}

// InjectSink is the export that hostile argument chunks are aimed at.
type InjectSink struct{}

// Take accepts one struct argument.
func (InjectSink) Take(p fixtures.PersonA) int { return p.Age }

// sinkFrame renders an invoke request for InjectSink.Take exported as
// "sink", followed by tail (its argument chunks, or broken framing).
func sinkFrame(tail []byte) []byte {
	return append(appendChunk(appendChunk(nil, "sink"), "Take"), tail...)
}

// TestMalformedFrameInjectionPlainLink replays the crasher corpora as
// MsgObject and MsgInvokeRequest bodies over a live (unreliable) link
// and asserts typed drop reporting plus continued service. Each corpus
// entry also travels as the argument chunk of a well-formed invoke
// frame, so it reaches the argument decoder behind the frame parser,
// and malformed frames probe the parser itself: each such exchange
// must be answered with an error reply.
func TestMalformedFrameInjectionPlainLink(t *testing.T) {
	var dropped atomic.Int64
	var reasons sync.Map
	obs := func(e Event) {
		if e.Kind == EventDropped {
			dropped.Add(1)
			reasons.Store(e.Detail, true)
		}
	}
	_, na, nb := fabricPairOpts(t, 9001, FaultProfile{}, nil,
		[]PeerOption{WithRequestTimeout(2 * time.Second)},
		[]PeerOption{WithRequestTimeout(2 * time.Second), WithObserver(obs)})

	var mu sync.Mutex
	var got []int
	if err := nb.Peer().OnReceive(fixtures.PersonA{}, func(d Delivery) {
		mu.Lock()
		got = append(got, d.Bound.(*fixtures.PersonA).Age)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if err := nb.Peer().Export("sink", InjectSink{}); err != nil {
		t.Fatal(err)
	}
	ca, ok := na.ConnTo("b")
	if !ok {
		t.Fatal("no conn a->b")
	}
	exchange := func(what string, body []byte) error {
		t.Helper()
		_, err := ca.request(MsgInvokeRequest, body)
		var re *RemoteError
		if !errors.As(err, &re) {
			t.Fatalf("%s: got %v, want an error reply", what, err)
		}
		return err
	}

	// A well-formed object first, so the type handshake is done and
	// the injections hit a warmed receive path too.
	if err := na.Peer().SendObject(ca, fixtures.PersonB{PersonName: "pre", PersonAge: 1}); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(10*time.Second, func() bool { mu.Lock(); defer mu.Unlock(); return len(got) == 1 }) {
		t.Fatal("priming object not delivered")
	}

	injected := 0
	for name, payloads := range injectionCorpora(t) {
		for _, p := range payloads {
			// One-way object frames: the receive path must absorb any
			// body without tearing the conn down.
			if err := ca.send(&Message{Type: MsgObject, Body: p}); err != nil {
				t.Fatalf("inject %s as object: %v", name, err)
			}
			// Invoke requests answer with a typed wire error instead
			// of wedging the dispatcher; fired one-way, the reply (to
			// a seq nobody waits on) must be dropped harmlessly too.
			if err := ca.send(&Message{Type: MsgInvokeRequest, Seq: 1 << 40, Body: p}); err != nil {
				t.Fatalf("inject %s as invoke: %v", name, err)
			}
			// The same bytes as Take's argument: the frame parses, and
			// the argument decoder refuses them.
			if err := exchange("argument from "+name, sinkFrame(appendChunk(nil, p))); !strings.Contains(err.Error(), "arg 0: ") {
				t.Fatalf("argument from %s: got %v, want the argument decoder's refusal", name, err)
			}
			injected += 3
		}
	}
	exchange("chunk length past the end", sinkFrame([]byte{0, 0, 0, 9, 'x'}))
	exchange("truncated chunk header", sinkFrame([]byte{0, 0}))
	if err := exchange("one argument too many", sinkFrame(appendChunk(appendChunk(nil, "a"), "b"))); !errors.Is(err, ErrArityMismatch) {
		t.Fatalf("one argument too many: got %v, want ErrArityMismatch", err)
	}

	// Continued service: well-formed traffic still flows on the very
	// same conn, exactly once, after every hostile frame.
	for i := 2; i <= 4; i++ {
		if err := na.Peer().SendObject(ca, fixtures.PersonB{PersonName: "post", PersonAge: i}); err != nil {
			t.Fatalf("post-injection send %d: %v", i, err)
		}
	}
	if !waitUntil(20*time.Second, func() bool { mu.Lock(); defer mu.Unlock(); return len(got) == 4 }) {
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("post-injection delivery stalled: got %v", got)
	}
	// The plain link promises exactly-once, not order: assert the set.
	mu.Lock()
	seen := map[int]bool{}
	for _, id := range got {
		if seen[id] {
			t.Fatalf("duplicate delivery of id %d: %v", id, got)
		}
		seen[id] = true
	}
	for id := 1; id <= 4; id++ {
		if !seen[id] {
			t.Fatalf("id %d lost under injection: %v", id, got)
		}
	}
	mu.Unlock()

	if dropped.Load() == 0 {
		t.Fatalf("injected %d hostile frames, observed no EventDropped", injected)
	}
	var names []string
	reasons.Range(func(k, _ interface{}) bool { names = append(names, k.(string)); return true })
	t.Logf("injected %d frames, %d drops, reasons: %v", injected, dropped.Load(), names)

	// Frames that referenced unknown types are still on their doomed
	// type-info round trips; the received = delivered + Σ dropped by
	// reason identity holds only once those settle.
	if !waitUntil(20*time.Second, func() bool {
		return receptionsSettled(nb.Peer().Stats().Snapshot())
	}) {
		t.Fatalf("accounting broke under injection: %+v", nb.Peer().Stats().Snapshot())
	}
}

// TestMalformedFrameInjectionManagedLink replays the corpora as
// reliable-layer and lifecycle frame bodies against a managed link:
// garbage MsgReliableData/Ack and truncated resume handshakes
// must neither kill the session nor confuse the failure detector —
// the remote stays healthy and in-order delivery continues.
func TestMalformedFrameInjectionManagedLink(t *testing.T) {
	f := NewFabric(9002)
	defer f.Close()
	pubReg, subReg := personRegs(t)
	if _, err := f.AddPeerWithRegistry("pub", pubReg,
		WithReliableLinks(WithSendQueue(64)),
		WithHeartbeat(50*time.Millisecond),
		WithRequestTimeout(2*time.Second)); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []int
	if _, err := f.AddPeerWithRegistry("sub", subReg,
		WithRequestTimeout(2*time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := f.Node("sub").Peer().OnReceive(fixtures.PersonA{}, func(d Delivery) {
		mu.Lock()
		got = append(got, d.Bound.(*fixtures.PersonA).Age)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	rm, err := f.ConnectManaged("pub", "sub", FaultProfile{})
	if err != nil {
		t.Fatal(err)
	}

	pub := f.Node("pub").Peer()
	if _, err := pub.Broadcast(fixtures.PersonB{PersonName: "pre", PersonAge: 1}); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(10*time.Second, func() bool { mu.Lock(); defer mu.Unlock(); return len(got) == 1 }) {
		t.Fatal("priming object not delivered over managed link")
	}

	// Inject at the subscriber: hostile frames arrive on the same
	// conn the reliable session lives on, from the direction the
	// publisher's frames normally flow.
	f.mu.Lock()
	cb := f.nodes["sub"].conns["pub"]
	f.mu.Unlock()
	if cb == nil {
		t.Fatal("subscriber has no conn from pub")
	}
	for name, payloads := range injectionCorpora(t) {
		for _, p := range payloads {
			for _, mt := range []MsgType{MsgReliableData, MsgReliableAck,
				MsgResumeRequest, MsgResumeReply, MsgObject} {
				if err := cb.send(&Message{Type: mt, Body: p}); err != nil {
					t.Fatalf("inject %s as %v: %v", name, mt, err)
				}
			}
		}
	}

	// The lifecycle must not have flinched: still healthy, and the
	// reliable stream still delivers in order.
	for i := 2; i <= 6; i++ {
		if _, err := pub.Broadcast(fixtures.PersonB{PersonName: "post", PersonAge: i}); err != nil {
			t.Fatalf("post-injection broadcast %d: %v", i, err)
		}
	}
	if !waitUntil(20*time.Second, func() bool { mu.Lock(); defer mu.Unlock(); return len(got) == 6 }) {
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("managed link stalled after injection: got %v (state=%v)", got, rm.State())
	}
	mu.Lock()
	for i, id := range got {
		if id != i+1 {
			t.Fatalf("delivery %d = id %d, want %d", i, id, i+1)
		}
	}
	mu.Unlock()
	if st := rm.State(); st != HealthHealthy {
		t.Fatalf("remote state = %v after injection, want healthy", st)
	}
	if st := pub.Stats().Snapshot(); st.RelQueueAbandoned != 0 {
		t.Fatalf("injection abandoned %d queued frames", st.RelQueueAbandoned)
	}
}
