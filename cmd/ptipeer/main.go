// Command ptipeer runs one participant of the optimistic transport
// protocol, for demos between two shells:
//
//	# shell 1: a receiver that owns PersonA and accepts anything
//	# conformant to it
//	ptipeer -listen 127.0.0.1:9000 -role receive -count 3
//
//	# shell 2: a sender that owns the independently written PersonB
//	ptipeer -connect 127.0.0.1:9000 -role send -count 3
//
// The receiver prints each delivery together with the protocol
// statistics (type-info and code round trips), making the optimistic
// caching visible: only the first object pays the extra exchanges.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"pti/internal/fixtures"
	"pti/internal/registry"
	"pti/internal/transport"
)

func main() {
	var (
		listen  = flag.String("listen", "", "address to listen on (receiver)")
		connect = flag.String("connect", "", "address to connect to (sender)")
		role    = flag.String("role", "", "send or receive")
		count   = flag.Int("count", 3, "objects to send / receive before exiting")
		eager   = flag.Bool("eager", false, "sender ships description+code with every object (baseline)")
		trace   = flag.Bool("trace", false, "print every protocol event (Figure 1 made visible)")
	)
	flag.Parse()
	if err := run(*listen, *connect, *role, *count, *eager, *trace); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(listen, connect, role string, count int, eager, trace bool) error {
	var opts []transport.PeerOption
	if trace {
		opts = append(opts, transport.WithObserver(func(e transport.Event) {
			fmt.Printf("  [trace] %s\n", e)
		}))
	}
	switch role {
	case "receive":
		return runReceiver(listen, count, opts...)
	case "send":
		return runSender(connect, count, eager, opts...)
	default:
		return fmt.Errorf("-role must be send or receive")
	}
}

func runReceiver(listen string, count int, opts ...transport.PeerOption) error {
	if listen == "" {
		return fmt.Errorf("receiver needs -listen")
	}
	reg := registry.New()
	if _, err := reg.Register(fixtures.PersonA{}); err != nil {
		return err
	}
	peer := transport.NewPeer(reg, append([]transport.PeerOption{transport.WithName("receiver")}, opts...)...)
	defer peer.Close()

	// Deliveries may arrive concurrently (one handler goroutine per
	// message); guard the counter.
	var (
		mu   sync.Mutex
		seen int
	)
	done := make(chan struct{})
	if err := peer.OnReceive(fixtures.PersonA{}, func(d transport.Delivery) {
		p := d.Bound.(*fixtures.PersonA)
		st := peer.Stats().Snapshot()
		fmt.Printf("received %s as PersonA{Name:%q Age:%d}  [type-info rt: %d, code rt: %d]\n",
			d.TypeName, p.Name, p.Age, st.TypeInfoRequests, st.CodeRequests)
		mu.Lock()
		seen++
		if seen == count {
			close(done)
		}
		mu.Unlock()
	}); err != nil {
		return err
	}
	if err := peer.Listen(listen); err != nil {
		return err
	}
	fmt.Printf("receiver listening on %s, waiting for %d object(s)\n", peer.Addr(), count)
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		return fmt.Errorf("timed out after %d/%d objects", seen, count)
	}
	printCounters(peer.Stats())
	return nil
}

func runSender(connect string, count int, eager bool, extra ...transport.PeerOption) error {
	if connect == "" {
		return fmt.Errorf("sender needs -connect")
	}
	reg := registry.New()
	if _, err := reg.Register(fixtures.PersonB{}); err != nil {
		return err
	}
	opts := append([]transport.PeerOption{transport.WithName("sender")}, extra...)
	if eager {
		opts = append(opts, transport.Eager())
	}
	peer := transport.NewPeer(reg, opts...)
	defer peer.Close()

	conn, err := peer.Dial(connect)
	if err != nil {
		return err
	}
	names := []string{"Hopper", "Lovelace", "Turing", "Wirth", "Liskov"}
	for i := 0; i < count; i++ {
		p := fixtures.PersonB{PersonName: names[i%len(names)], PersonAge: 30 + i}
		if err := peer.SendObject(conn, p); err != nil {
			return err
		}
		fmt.Printf("sent PersonB{PersonName:%q PersonAge:%d}\n", p.PersonName, p.PersonAge)
	}
	// Give in-flight protocol exchanges a moment before closing.
	time.Sleep(200 * time.Millisecond)
	printCounters(peer.Stats())
	return nil
}

// printCounters prints every nonzero protocol counter by name, drop
// reasons included.
func printCounters(st *transport.Stats) {
	fmt.Println("done:")
	st.Each(func(name string, v uint64) {
		if v != 0 {
			fmt.Printf("  %-18s %d\n", name, v)
		}
	})
}
