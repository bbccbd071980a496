package bufpool_test

import (
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"pti"
	"pti/internal/bufpool"
	"pti/internal/fixtures"
)

// holdPool makes the pool's contents observable from the test
// goroutine: with one P every Put lands in the slots a Get from here
// reaches, and with the collector off nothing is evicted between the
// Put under test and the drain.
func holdPool(t *testing.T) {
	t.Helper()
	procs := runtime.GOMAXPROCS(1)
	gc := debug.SetGCPercent(-1)
	t.Cleanup(func() {
		debug.SetGCPercent(gc)
		runtime.GOMAXPROCS(procs)
	})
}

// assertCapped drains the pool and fails if any buffer it hands out
// keeps more than the retention cap. The drained buffers are not put
// back, so each check sees only what came after the previous one.
func assertCapped(t *testing.T, after string) {
	t.Helper()
	for i := 0; i < 256; i++ {
		if c := cap(bufpool.Get().B); c > bufpool.MaxRetained {
			t.Errorf("after %s: Get returned a buffer of cap %d, cap is %d", after, c, bufpool.MaxRetained)
		}
	}
}

func TestPutDropsBuffersOverCap(t *testing.T) {
	holdPool(t)
	over := bufpool.MaxRetained + 1
	for name, grow := range map[string]func(*bufpool.Buffer){
		"append":      func(b *bufpool.Buffer) { b.B = append(b.B, make([]byte, over)...) },
		"Write":       func(b *bufpool.Buffer) { _, _ = b.Write(make([]byte, over)) },
		"WriteString": func(b *bufpool.Buffer) { _, _ = b.WriteString(strings.Repeat("x", over)) },
		"WriteByte": func(b *bufpool.Buffer) {
			for i := 0; i < over; i++ {
				_ = b.WriteByte('x')
			}
		},
	} {
		b := bufpool.Get()
		grow(b)
		bufpool.Put(b)
		assertCapped(t, name)
	}
	b := bufpool.Get()
	_, _ = b.Write(make([]byte, 1<<20))
	if out := bufpool.Finish(b); len(out) != 1<<20 || cap(out) != 1<<20 {
		t.Errorf("Finish returned len %d cap %d, want the exact %d bytes", len(out), cap(out), 1<<20)
	}
	assertCapped(t, "Finish")
}

// TestLargePayloadLeavesNoBufferOverCap sends one ~1 MiB object
// through a peer pair and the facade's Marshal/Unmarshal — every path
// that borrows a pooled buffer on the way — and checks that none of
// the grown buffers stays in the pool.
func TestLargePayloadLeavesNoBufferOverCap(t *testing.T) {
	holdPool(t)
	big := fixtures.PersonB{PersonName: strings.Repeat("n", 1<<20), PersonAge: 1}

	sender, receiver := pti.New(), pti.New()
	if err := sender.Register(fixtures.PersonB{}); err != nil {
		t.Fatal(err)
	}
	if err := receiver.Register(fixtures.PersonA{}); err != nil {
		t.Fatal(err)
	}
	a, b := sender.NewPeer("a"), receiver.NewPeer("b")
	names := make(chan int, 1)
	if err := b.OnReceive(fixtures.PersonA{}, func(d pti.Delivery) {
		names <- len(d.Bound.(*fixtures.PersonA).Name)
	}); err != nil {
		t.Fatal(err)
	}
	ca, _ := pti.Connect(a, b)
	if err := a.SendObject(ca, big); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-names:
		if n != len(big.PersonName) {
			t.Fatalf("delivered a name of %d bytes, want %d", n, len(big.PersonName))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no delivery")
	}
	// Close waits for the receive handler, so its scratch is back in
	// the pool before the drain.
	a.Close()
	b.Close()
	assertCapped(t, "SendObject")

	if err := receiver.Register(fixtures.PersonB{}); err != nil {
		t.Fatal(err)
	}
	data, err := receiver.Marshal(big)
	if err != nil {
		t.Fatal(err)
	}
	// The first Unmarshal learns the envelope shape; the second takes
	// the fast path, which decodes the payload into pooled scratch.
	for i := 0; i < 2; i++ {
		out, _, err := receiver.Unmarshal(data, fixtures.PersonA{})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(out.(*fixtures.PersonA).Name); n != len(big.PersonName) {
			t.Fatalf("unmarshaled a name of %d bytes, want %d", n, len(big.PersonName))
		}
	}
	assertCapped(t, "Marshal/Unmarshal")
}
