package transport

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"pti/internal/guid"
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
		var buf bytes.Buffer
		wrote, err := WriteMessage(&buf, &msg)
		if err != nil {
			t.Fatal(err)
		}
		if wrote != buf.Len() {
			t.Errorf("wrote = %d, buffer = %d", wrote, buf.Len())
		}
		got, read, err := ReadMessage(&buf)
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
	var buf bytes.Buffer
	big := Message{Type: MsgObject, Body: make([]byte, MaxFrameSize)}
	if _, err := WriteMessage(&buf, &big); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversize write: %v", err)
	}
}

func TestReadMessageErrors(t *testing.T) {
	// Clean EOF.
	if _, _, err := ReadMessage(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty read: %v", err)
	}
	// Truncated frame.
	var buf bytes.Buffer
	if _, err := WriteMessage(&buf, &Message{Type: MsgObject, Body: []byte("hello")}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, _, err := ReadMessage(bytes.NewReader(data[:len(data)-2])); !errors.Is(err, ErrBadFrame) {
		t.Errorf("truncated read: %v", err)
	}
	// Absurd length prefix.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, err := ReadMessage(bytes.NewReader(huge)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("huge length: %v", err)
	}
	// Length below minimum.
	small := []byte{0, 0, 0, 1, 0}
	if _, _, err := ReadMessage(bytes.NewReader(small)); !errors.Is(err, ErrBadFrame) {
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
