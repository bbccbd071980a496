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
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
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

func (t MsgType) String() string {
	switch t {
	case MsgObject:
		return "Object"
	case MsgTypeInfoRequest:
		return "TypeInfoRequest"
	case MsgTypeInfoReply:
		return "TypeInfoReply"
	case MsgCodeRequest:
		return "CodeRequest"
	case MsgCodeReply:
		return "CodeReply"
	case MsgInvokeRequest:
		return "InvokeRequest"
	case MsgInvokeReply:
		return "InvokeReply"
	case MsgLookupRequest:
		return "LookupRequest"
	case MsgLookupReply:
		return "LookupReply"
	case MsgError:
		return "Error"
	case MsgReliableData:
		return "ReliableData"
	case MsgReliableAck:
		return "ReliableAck"
	case MsgPing:
		return "Ping"
	case MsgPong:
		return "Pong"
	case MsgResumeRequest:
		return "ResumeRequest"
	case MsgResumeReply:
		return "ResumeReply"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
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

// WriteMessage writes one length-prefixed frame in a single Write and
// returns the number of bytes put on the wire.
func WriteMessage(w io.Writer, m *Message) (int, error) {
	frame, err := appendFrame(nil, m)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(frame)
	if err != nil {
		return n, fmt.Errorf("transport: write frame: %w", err)
	}
	return n, nil
}

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

// ReadMessage reads one frame and returns it with the number of bytes
// consumed.
func ReadMessage(r io.Reader) (*Message, int, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, 0, err // io.EOF passes through for clean shutdown
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n < 9 {
		return nil, 4, fmt.Errorf("%w: length %d", ErrBadFrame, n)
	}
	if n > MaxFrameSize {
		return nil, 4, fmt.Errorf("%w: length %d", ErrFrameTooLarge, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, 4, fmt.Errorf("%w: truncated frame: %v", ErrBadFrame, err)
	}
	m := &Message{
		Type: MsgType(payload[0]),
		Seq:  binary.BigEndian.Uint64(payload[1:9]),
		Body: payload[9:],
	}
	return m, 4 + int(n), nil
}
