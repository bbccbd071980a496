package transport

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"time"
)

// fuzzAckWindow is the window of the sender FuzzReliableAck feeds;
// fuzzAckSent object frames are sent, so the window is full and the
// rest wait in the queue.
const (
	fuzzAckWindow = 4
	fuzzAckSent   = 6
)

// FuzzReliableAck holds the sender's feedback path against arbitrary
// MsgReliableAck bodies — the read loop hands the peer's bytes to Ack
// unchecked. Each input goes to a standalone ReliableLink with a full
// window on the wire; with ownEpoch the body's epoch field is first
// overwritten with the link's, so watermarks and gap seqs reach the
// in-flight set. Ack never panics and window occupancy stays within
// [0, Window]. The decoder accepts exactly the lengths 16 + 8k with
// k <= maxNackSeqs, and an accepted body re-encodes byte-identically.
// The seed corpus is testdata/fuzz/FuzzReliableAck.
func FuzzReliableAck(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte, ownEpoch bool) {
		link := &scriptLink{}
		r := NewReliableLink(link, NewManualClock(),
			WithWindow(fuzzAckWindow), WithRetransmitTimeout(time.Hour))
		defer r.Close()
		for i := 1; i <= fuzzAckSent; i++ {
			if err := r.Send(obj(uint64(i))); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for link.count() < fuzzAckWindow {
			if time.Now().After(deadline) {
				t.Fatalf("frames on the wire = %d, want %d", link.count(), fuzzAckWindow)
			}
			runtime.Gosched()
		}
		if ownEpoch && len(body) >= 8 {
			body = append([]byte(nil), body...)
			binary.BigEndian.PutUint64(body, r.Snapshot().Epoch)
		}

		epoch, cum, gaps, err := decodeRelAck(body)
		wellFormed := len(body) >= 16 && len(body)%8 == 0
		switch {
		case err == nil && !wellFormed:
			t.Fatalf("accepted a %d-byte body", len(body))
		case wellFormed && (len(body)-16)/8 > maxNackSeqs:
			if err == nil {
				t.Fatalf("accepted %d gaps, more than %d", len(gaps), maxNackSeqs)
			}
		case wellFormed && err != nil:
			t.Fatalf("rejected a %d-byte body: %v", len(body), err)
		case err == nil:
			if again := appendRelAck(nil, epoch, cum, gaps); !bytes.Equal(again, body) {
				t.Fatalf("re-encoded %x, want %x", again, body)
			}
		}

		r.Ack(body)
		s := r.Snapshot()
		if s.InFlightData < 0 || s.InFlightData > fuzzAckWindow || s.InFlight < s.InFlightData {
			t.Fatalf("in flight %d (data %d), want data within [0, %d]", s.InFlight, s.InFlightData, fuzzAckWindow)
		}
	})
}
