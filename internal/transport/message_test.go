package transport

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"pti/internal/guid"
	"pti/internal/registry"
	"pti/internal/typedesc"
)

func TestMessageRoundTrip(t *testing.T) {
	tests := []Message{
		{Type: MsgObject, Seq: 0, Body: []byte("payload")},
		{Type: MsgTypeInfoRequest, Seq: 42, Body: nil},
		{Type: MsgError, Seq: 1 << 60, Body: []byte("boom")},
		{Type: MsgInvokeReply, Seq: 7, Body: bytes.Repeat([]byte{0xAB}, 10000)},
	}
	for _, msg := range tests {
		frame, err := appendFrame(nil, &msg)
		if err != nil {
			t.Fatal(err)
		}
		wrote := len(frame)
		got, read, err := ReadMessage(bufio.NewReader(bytes.NewReader(frame)))
		if err != nil {
			t.Fatal(err)
		}
		if read != wrote {
			t.Errorf("read = %d, wrote = %d", read, wrote)
		}
		if got.Type != msg.Type || got.Seq != msg.Seq || !bytes.Equal(got.Body, msg.Body) {
			t.Errorf("round trip mismatch: %+v vs %+v", got, msg)
		}
	}
}

func TestMessageTooLarge(t *testing.T) {
	big := Message{Type: MsgObject, Body: make([]byte, MaxFrameSize)}
	if _, err := appendFrame(nil, &big); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversize write: %v", err)
	}
}

func TestReadMessageErrors(t *testing.T) {
	// Clean EOF.
	if _, _, err := ReadMessage(bufio.NewReader(bytes.NewReader(nil))); err != io.EOF {
		t.Errorf("empty read: %v", err)
	}
	// Truncated frame.
	data, err := appendFrame(nil, &Message{Type: MsgObject, Body: []byte("hello")})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadMessage(bufio.NewReader(bytes.NewReader(data[:len(data)-2]))); !errors.Is(err, ErrBadFrame) {
		t.Errorf("truncated read: %v", err)
	}
	// Absurd length prefix.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, err := ReadMessage(bufio.NewReader(bytes.NewReader(huge))); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("huge length: %v", err)
	}
	// Length below minimum.
	small := []byte{0, 0, 0, 1, 0}
	if _, _, err := ReadMessage(bufio.NewReader(bytes.NewReader(small))); !errors.Is(err, ErrBadFrame) {
		t.Errorf("small length: %v", err)
	}
}

func TestMsgTypeString(t *testing.T) {
	types := []MsgType{
		MsgObject, MsgTypeInfoRequest, MsgTypeInfoReply, MsgCodeRequest,
		MsgCodeReply, MsgInvokeRequest, MsgInvokeReply, MsgLookupRequest,
		MsgLookupReply, MsgError,
	}
	seen := make(map[string]bool)
	for _, mt := range types {
		s := mt.String()
		if s == "" || seen[s] {
			t.Errorf("bad or duplicate string for %d: %q", mt, s)
		}
		seen[s] = true
	}
	if MsgType(99).String() == "" {
		t.Error("unknown type should still render")
	}
}

func TestRefEncodeDecode(t *testing.T) {
	ref := typedesc.TypeRef{Name: "PersonA", Identity: guid.Derive("p")}
	got, err := decodeRef(encodeRef(ref))
	if err != nil {
		t.Fatal(err)
	}
	if got != ref {
		t.Errorf("ref round trip: %v vs %v", got, ref)
	}
	if _, err := decodeRef([]byte("no separator")); err == nil {
		t.Error("missing separator accepted")
	}
	if _, err := decodeRef([]byte("name\x00bad-guid")); err == nil {
		t.Error("bad identity accepted")
	}
}

// TestRefBodyBytesUnchanged pins the type-ref request body to its
// string-built form, name + NUL + the identity's canonical text, for
// nil and non-nil identities, and round-trips each.
func TestRefBodyBytesUnchanged(t *testing.T) {
	for _, ref := range []typedesc.TypeRef{
		{Name: "PersonA", Identity: guid.Derive("p")},
		{Name: "PersonA"},
		{Name: "", Identity: guid.New()},
		{Name: "map[string]*Straße"},
	} {
		body := encodeRef(ref)
		if want := []byte(ref.Name + "\x00" + ref.Identity.String()); !bytes.Equal(body, want) {
			t.Errorf("encodeRef(%v) = %q, want %q", ref, body, want)
		}
		got, err := decodeRef(body)
		if err != nil || got != ref {
			t.Errorf("decodeRef(encodeRef(%v)) = %v, %v", ref, got, err)
		}
	}
	if _, err := decodeRef([]byte("name\x00" + guid.Derive("p").String() + "\x00")); err == nil {
		t.Error("trailing bytes after the identity accepted")
	}
}

func TestChunkPacking(t *testing.T) {
	body := appendChunk([]byte{flagEager}, []byte("desc"))
	body = appendChunk(body, []byte("code"))
	body = append(body, "env"...)
	if body[0] != flagEager {
		t.Fatal("flag missing")
	}
	desc, rest, err := readChunk(body[1:])
	if err != nil || string(desc) != "desc" {
		t.Fatalf("desc chunk: %q %v", desc, err)
	}
	code, rest, err := readChunk(rest)
	if err != nil || string(code) != "code" {
		t.Fatalf("code chunk: %q %v", code, err)
	}
	if string(rest) != "env" {
		t.Errorf("env = %q", rest)
	}
	if _, _, err := readChunk([]byte{0, 0}); err == nil {
		t.Error("short header accepted")
	}
	if _, _, err := readChunk([]byte{0, 0, 0, 200, 1}); err == nil {
		t.Error("overlong chunk accepted")
	}
}

// TestMessageClasses pins msgClasses, the one table that classifies
// message types, to the routing the transport has always had. raw is
// the read loop's path: a reply goes to its request, an onRead handler
// runs on the loop, and anything else runs handleRequest on a handler
// goroutine. rel is the path of a message unwrapped from a reliable
// data frame: a reply that is not raw goes to its request, and
// anything else is dispatched in order through handleRequest. A type
// without a serve handler is answered "unexpected".
func TestMessageClasses(t *testing.T) {
	type want struct {
		name       string
		reply, raw bool
		rawRoute   string
		relRoute   string
	}
	wants := map[MsgType]want{
		MsgObject:          {"Object", false, false, "handler handleObject", "serve handleObject"},
		MsgTypeInfoRequest: {"TypeInfoRequest", false, false, "handler handleTypeInfo", "serve handleTypeInfo"},
		MsgTypeInfoReply:   {"TypeInfoReply", true, false, "reply", "reply"},
		MsgCodeRequest:     {"CodeRequest", false, false, "handler handleCode", "serve handleCode"},
		MsgCodeReply:       {"CodeReply", true, false, "reply", "reply"},
		MsgInvokeRequest:   {"InvokeRequest", false, false, "read dispatchInvoke", "serve dispatchInvoke"},
		MsgInvokeReply:     {"InvokeReply", true, false, "reply", "reply"},
		MsgLookupRequest:   {"LookupRequest", false, false, "handler handleLookup", "serve handleLookup"},
		MsgLookupReply:     {"LookupReply", true, false, "reply", "reply"},
		MsgError:           {"Error", true, false, "reply", "reply"},
		MsgReliableData:    {"ReliableData", false, true, "read acceptData", "unexpected"},
		MsgReliableAck:     {"ReliableAck", false, true, "read acceptAck", "unexpected"},
		MsgPing:            {"Ping", false, true, "read answerPing", "unexpected"},
		MsgPong:            {"Pong", false, true, "read ignoreFrame", "unexpected"},
		MsgResumeRequest:   {"ResumeRequest", false, true, "handler handleResume", "serve handleResume"},
		MsgResumeReply:     {"ResumeReply", true, true, "reply", "unexpected"},
	}
	short := func(h handler) string {
		name := runtime.FuncForPC(reflect.ValueOf(h).Pointer()).Name()
		return name[strings.LastIndexByte(name, '.')+1:]
	}
	for i := 0; i < 256; i++ {
		mt := MsgType(i)
		w, ok := wants[mt]
		if !ok { // 0, the reserved 13 and every undefined type
			w = want{fmt.Sprintf("MsgType(%d)", i), false, false, "handler unexpected", "unexpected"}
		}
		cl := mt.class()
		var rawRoute, relRoute string
		switch {
		case cl.reply:
			rawRoute = "reply"
		case cl.onRead != nil:
			rawRoute = "read " + short(cl.onRead)
		case cl.serve != nil:
			rawRoute = "handler " + short(cl.serve)
		default:
			rawRoute = "handler unexpected"
		}
		switch {
		case cl.reply && !cl.raw:
			relRoute = "reply"
		case cl.serve != nil:
			relRoute = "serve " + short(cl.serve)
		default:
			relRoute = "unexpected"
		}
		got := want{mt.String(), cl.reply, cl.raw, rawRoute, relRoute}
		if got != w {
			t.Errorf("MsgType(%d) = %+v\n want %+v", i, got, w)
		}
	}

	// Live, on the raw path: the reserved 13 and an undefined type are
	// answered with an "unexpected message" error echoing their seq.
	p := NewPeer(registry.New())
	defer p.Close()
	local, remote := net.Pipe()
	defer remote.Close()
	newConn(p, local)
	br := bufio.NewReader(remote)
	for _, mt := range []MsgType{13, 200} {
		frame, err := appendFrame(nil, &Message{Type: mt, Seq: 40 + uint64(mt)})
		if err != nil {
			t.Fatal(err)
		}
		_ = remote.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := remote.Write(frame); err != nil {
			t.Fatal(err)
		}
		m, _, err := ReadMessage(br)
		if err != nil {
			t.Fatalf("%s: no answer: %v", mt, err)
		}
		if m.Type != MsgError || m.Seq != 40+uint64(mt) {
			t.Fatalf("%s: answer %s seq %d, want Error seq %d", mt, m.Type, m.Seq, 40+uint64(mt))
		}
		if err := decodeWireError(m.Body); !strings.Contains(err.Error(), "unexpected message "+mt.String()) {
			t.Errorf("%s: answer %q, want an unexpected-message error", mt, err)
		}
	}
}
