// Package transport implements the optimistic transport protocol of
// Pragmatic Type Interoperability (ICDCS 2003, Section 3.2, Figure 1):
//
//	Peer A                          Peer B
//	  | 1. object (envelope only)     |
//	  |------------------------------>|
//	  | 2. asking for type info       |
//	  |<------------------------------|
//	  | 3. type information           |
//	  |------------------------------>|  (rules check)
//	  | 4. types conform, asking code |
//	  |<------------------------------|
//	  | 5. the code; object usable    |
//	  |------------------------------>|
//
// The protocol is optimistic: "the code of the object as well as its
// type representation are not always sent with the object itself, but
// only when needed". Descriptions and code manifests are cached, so a
// warm receiver accepts objects with zero extra round trips. An eager
// baseline (ship everything every time) is provided for the ablation
// benchmarks.
//
// Pass-by-reference semantics (Section 6) are provided through
// exported objects and remote references whose invocations carry the
// conformance mapping.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
)

// MsgType identifies a protocol message.
type MsgType uint8

// Protocol message types (Figure 1 steps, plus remoting).
const (
	// MsgObject carries an xmlenc envelope: the optimistic send
	// (step 1).
	MsgObject MsgType = iota + 1
	// MsgTypeInfoRequest asks for a type description (step 2).
	MsgTypeInfoRequest
	// MsgTypeInfoReply returns a description as XML (step 3).
	MsgTypeInfoReply
	// MsgCodeRequest asks for the implementation (step 4).
	MsgCodeRequest
	// MsgCodeReply returns the code blob (step 5).
	MsgCodeReply
	// MsgInvokeRequest invokes a method on an exported object
	// (pass-by-reference).
	MsgInvokeRequest
	// MsgInvokeReply returns invocation results.
	MsgInvokeReply
	// MsgLookupRequest asks for the type of an exported object.
	MsgLookupRequest
	// MsgLookupReply returns the exported object's type reference.
	MsgLookupReply
	// MsgError reports a request failure.
	MsgError
	// MsgReliableData frames an inner message with an (epoch, seq)
	// header for the reliable delivery layer (see reliable.go).
	MsgReliableData
	// MsgReliableAck is the reliable receiver's one feedback frame:
	// the delivered watermark, acknowledging reliable data frames
	// cumulatively, and the missing seqs of a detected gap, which the
	// sender retransmits at once instead of waiting out its backoff
	// timer.
	MsgReliableAck
	// 13 is reserved: it was the separate gap report, now carried by
	// MsgReliableAck. Keeping it unused leaves the later values as
	// they were.
	_
	// MsgPing is a heartbeat probe from the failure detector; any
	// frame counts as liveness, so pings only flow on idle links.
	MsgPing
	// MsgPong answers a ping, echoing its correlation seq; like any
	// inbound frame, reading it refreshes the conn's liveness signal.
	MsgPong
	// MsgResumeRequest opens the reliable-session resume handshake
	// after a redial: the sender names the epoch it wants to continue.
	MsgResumeRequest
	// MsgResumeReply answers with the receiver's last contiguous
	// (epoch, seq) so the sender replays only the unacked window.
	MsgResumeReply
)

// handler serves one inbound message on a connection.
type handler func(p *Peer, c *Conn, m *Message)

// msgClass is everything the transport decides by message type: the
// read loop, the reliable receiver, Conn.Send and request dispatch all
// read it from msgClasses, and nothing else lists types.
type msgClass struct {
	name string
	// reply marks a correlated reply: it goes straight to the request
	// waiting on its seq, never to a handler.
	reply bool
	// raw marks link control that never rides the reliable channel:
	// the reliable layer's own frames, heartbeats (a ping queued behind
	// a stalled window says nothing about liveness) and the resume
	// handshake, which runs before the channel is usable again. Inside
	// a reliable data frame a raw type is never routed as a reply; it
	// is dispatched like a request.
	raw bool
	// onRead, when set, runs on the read loop itself instead of a
	// handler goroutine. It must neither block nor write to the conn.
	onRead handler
	// serve is the request handler. A message that is neither a reply
	// nor handled on read and has no serve is answered "unexpected".
	serve handler
}

// msgClasses is indexed by MsgType; type 13 and undefined types have
// the zero class. It is filled by init because the handlers reach
// back into the table (Conn.Send, MsgType.String).
var msgClasses [MsgResumeReply + 1]msgClass

func init() {
	msgClasses = [...]msgClass{
		MsgObject:          {name: "Object", serve: (*Peer).handleObject},
		MsgTypeInfoRequest: {name: "TypeInfoRequest", serve: (*Peer).handleTypeInfo},
		MsgTypeInfoReply:   {name: "TypeInfoReply", reply: true},
		MsgCodeRequest:     {name: "CodeRequest", serve: (*Peer).handleCode},
		MsgCodeReply:       {name: "CodeReply", reply: true},
		// Invoke admission never blocks, so the read loop runs it in
		// place and an accepted call starts one handler, not two.
		MsgInvokeRequest: {name: "InvokeRequest", onRead: (*Peer).dispatchInvoke, serve: (*Peer).dispatchInvoke},
		MsgInvokeReply:   {name: "InvokeReply", reply: true},
		MsgLookupRequest: {name: "LookupRequest", serve: (*Peer).handleLookup},
		MsgLookupReply:   {name: "LookupReply", reply: true},
		MsgError:         {name: "Error", reply: true},
		MsgReliableData:  {name: "ReliableData", raw: true, onRead: (*Peer).acceptData},
		MsgReliableAck:   {name: "ReliableAck", raw: true, onRead: (*Peer).acceptAck},
		MsgPing:          {name: "Ping", raw: true, onRead: (*Peer).answerPing},
		MsgPong:          {name: "Pong", raw: true, onRead: ignoreFrame},
		MsgResumeRequest: {name: "ResumeRequest", raw: true, serve: (*Peer).handleResume},
		MsgResumeReply:   {name: "ResumeReply", reply: true, raw: true},
	}
}

// ignoreFrame handles a pong: reading it refreshed the conn's
// liveness, and nothing is left to do.
func ignoreFrame(*Peer, *Conn, *Message) {}

// noClass is the class of every type msgClasses does not name.
var noClass msgClass

func (t MsgType) class() *msgClass {
	if int(t) < len(msgClasses) {
		return &msgClasses[t]
	}
	return &noClass
}

func (t MsgType) String() string {
	if name := t.class().name; name != "" {
		return name
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Message is one protocol frame: a type, a correlation sequence
// number (replies echo the request's) and an opaque body.
type Message struct {
	Type MsgType
	Seq  uint64
	Body []byte
}

// Framing errors.
var (
	ErrFrameTooLarge = errors.New("transport: frame exceeds limit")
	ErrBadFrame      = errors.New("transport: malformed frame")
)

// MaxFrameSize bounds a single frame (16 MiB) so a corrupt length
// prefix cannot trigger huge allocations.
const MaxFrameSize = 16 << 20

const frameHeaderSize = 4 + 1 + 8 // length + type + seq

// appendFrame appends m's length-prefixed frame to buf, growing it at
// most once.
func appendFrame(buf []byte, m *Message) ([]byte, error) {
	if len(m.Body) > MaxFrameSize-frameHeaderSize {
		return buf, fmt.Errorf("%w: body %d bytes", ErrFrameTooLarge, len(m.Body))
	}
	buf = slices.Grow(buf, frameHeaderSize+len(m.Body))
	buf = binary.BigEndian.AppendUint32(buf, uint32(1+8+len(m.Body)))
	buf = append(buf, byte(m.Type))
	buf = binary.BigEndian.AppendUint64(buf, m.Seq)
	return append(buf, m.Body...), nil
}

// frameReaderSize is the read buffer of one connection: a burst of
// warm objects and acks (a few hundred bytes each) arrives in one read
// instead of two per frame, and a frame larger than the buffer is read
// past it straight into its payload.
const frameReaderSize = 4 << 10

// frameReaders pools the connections' read buffers: a read loop takes
// one when it starts and returns it when it exits, so short-lived
// connections reuse buffers instead of allocating one each.
var frameReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, frameReaderSize) }}

// ReadMessage reads one frame from br and returns it with the number
// of bytes consumed. A stream that ends cleanly between frames
// reports io.EOF, and one that ends inside a length header reports
// io.ErrUnexpectedEOF. The message's body never aliases br's buffer.
func ReadMessage(br *bufio.Reader) (*Message, int, error) {
	hdr, err := br.Peek(4)
	if err != nil {
		if len(hdr) > 0 && err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, 0, err // io.EOF passes through for clean shutdown
	}
	n := binary.BigEndian.Uint32(hdr)
	_, _ = br.Discard(4)
	if n < 9 {
		return nil, 4, fmt.Errorf("%w: length %d", ErrBadFrame, n)
	}
	if n > MaxFrameSize {
		return nil, 4, fmt.Errorf("%w: length %d", ErrFrameTooLarge, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, 4, fmt.Errorf("%w: truncated frame: %v", ErrBadFrame, err)
	}
	m := &Message{
		Type: MsgType(payload[0]),
		Seq:  binary.BigEndian.Uint64(payload[1:9]),
		Body: payload[9:],
	}
	return m, 4 + int(n), nil
}
