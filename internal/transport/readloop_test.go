package transport

import (
	"bufio"
	"net"
	"testing"
	"time"

	"pti/internal/registry"
)

// readLoopKeepsReading writes first into a conn over net.Pipe — a
// frame whose answer nobody reads — and then next. net.Pipe writes are
// synchronous, so next's write completes only if the read loop came
// back for it: a loop that wrote the first frame's answer itself would
// still be blocked on that write.
func readLoopKeepsReading(t *testing.T, first, next *Message) (remote net.Conn) {
	t.Helper()
	p := NewPeer(registry.New())
	local, remote := net.Pipe()
	newConn(p, local)
	t.Cleanup(func() {
		_ = remote.Close()
		_ = p.Close()
	})
	for i, m := range []*Message{first, next} {
		frame, err := appendFrame(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		_ = remote.SetWriteDeadline(time.Now().Add(2 * time.Second))
		if _, err := remote.Write(frame); err != nil {
			t.Fatalf("frame %d (%s) was not read: %v", i+1, m.Type, err)
		}
	}
	return remote
}

// TestReadLoopNotBlockedByUnreadPong: a ping whose pong nobody reads
// must not stop the read loop; the pong still goes out once the other
// side reads.
func TestReadLoopNotBlockedByUnreadPong(t *testing.T) {
	remote := readLoopKeepsReading(t,
		&Message{Type: MsgPing, Seq: 1},
		&Message{Type: MsgPing, Seq: 2})
	_ = remote.SetReadDeadline(time.Now().Add(2 * time.Second))
	br := bufio.NewReader(remote)
	seen := map[uint64]bool{}
	for len(seen) < 2 {
		m, _, err := ReadMessage(br)
		if err != nil {
			t.Fatalf("pongs seen %v: %v", seen, err)
		}
		if m.Type != MsgPong {
			t.Fatalf("answer %s, want Pong", m.Type)
		}
		seen[m.Seq] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("pongs for seqs %v, want 1 and 2", seen)
	}
}

// TestReadLoopNotBlockedByUnreadReceiptAck: a reliable data frame past
// a gap owes a receipt ack; nobody reads it, and the read loop must
// still take the next frame.
func TestReadLoopNotBlockedByUnreadReceiptAck(t *testing.T) {
	const epoch = 7
	readLoopKeepsReading(t,
		&Message{Type: MsgReliableData, Body: encodeRelData(epoch, 3, obj(12))},
		&Message{Type: MsgReliableData, Body: encodeRelData(epoch, 5, obj(14))})
}
