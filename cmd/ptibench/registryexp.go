package main

import (
	"fmt"
	"os"
	"time"

	"pti/internal/benchfmt"
	"pti/internal/fixtures"
	"pti/internal/registry"
	"pti/internal/transport"
)

// The registry experiment measures the durable type registry: a
// subscriber backed by a file store takes its first delivery cold
// (one wire description fetch), then crash/restarts and takes the
// same stream warm — every description preloaded from disk.

// registryRow is one measured cell (cold or warm).
type registryRow struct {
	Name           string  `json:"name"`
	Messages       int     `json:"messages"`
	Delivered      int     `json:"delivered"`
	DescFetches    uint64  `json:"desc_fetches"`
	DescWarmLoaded uint64  `json:"desc_warm_loaded"`
	DescStoreHits  uint64  `json:"desc_store_hits"`
	TTFDMs         float64 `json:"ttfd_ms"`
}

// registryGates: a restart over the durable store must not re-ask
// the network what it already learned — zero warm fetches, every
// description the cold run fetched preloaded from disk, and a time to
// first delivery that beats the cold path, which pays the description
// round trip. Both rows must deliver every message.
func registryGates() []benchfmt.Gate {
	const cold, warm = "registry/registry-cold", "registry/registry-warm"
	return []benchfmt.Gate{
		benchfmt.NewRatio(cold, "delivers every message", "delivered", "==", 1, cold, "messages"),
		benchfmt.NewRatio(warm, "delivers every message", "delivered", "==", 1, warm, "messages"),
		benchfmt.NewGate(warm, "zero description fetches", benchfmt.Exact, "desc_fetches", 0),
		benchfmt.NewRatio(warm, "preloads what cold fetched", "desc_warm_loaded", ">=", 1, cold, "desc_fetches"),
		benchfmt.NewRatio(warm, "ttfd beats cold", "ttfd_ms", "<", 1, cold, "ttfd_ms"),
	}
}

// expRegistry runs the cold-vs-warm restart comparison on the virtual
// clock and reports the description-fetch counters and TTFD per row.
func expRegistry(reps int) ([]benchfmt.Row, error) {
	msgs := 10 * reps
	fmt.Printf("  fabric seed: %d (rerun with -seed %d to replay)  [virtual clock]\n", *seed, *seed)
	rows, err := runRegistry(msgs)
	if err != nil {
		return nil, err
	}
	var out []benchfmt.Row
	for _, row := range rows {
		fmt.Printf("  %-16s delivered %d/%d  desc fetches %d  warm-loaded %d  ttfd %.3fms\n",
			row.Name, row.Delivered, row.Messages, row.DescFetches, row.DescWarmLoaded, row.TTFDMs)
		out = append(out, benchRow("registry", row.Name, row))
	}
	return out, nil
}

// runRegistry is one full cold/warm run: a publisher streams msgs
// objects at a store-backed subscriber, the subscriber crashes and
// warm-restarts from the same directory, and the stream repeats.
func runRegistry(msgs int) ([]registryRow, error) {
	f := transport.NewFabric(*seed, transport.WithVirtualClock())
	defer func() { _ = f.Close() }()

	dir, err := os.MkdirTemp("", "ptibench-registry-*")
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }()

	regPub := registry.New()
	if _, err := regPub.Register(fixtures.PersonB{},
		registry.WithConstructor("NewPersonB", fixtures.NewPersonB)); err != nil {
		return nil, err
	}
	pub, err := f.AddPeerWithRegistry("pub", regPub)
	if err != nil {
		return nil, err
	}
	regSub := registry.New()
	if _, err := regSub.Register(fixtures.PersonA{},
		registry.WithConstructor("NewPersonA", fixtures.NewPersonA)); err != nil {
		return nil, err
	}
	// WithStoreDir so the fabric Restart reopens the store from disk:
	// the warm incarnation shares nothing with the cold one but the
	// directory, exactly like a restarted process.
	sub, err := f.AddPeerWithRegistry("sub", regSub, transport.WithStoreDir(dir))
	if err != nil {
		return nil, err
	}
	// A visible link latency so TTFD is dominated by round-trips: the
	// cold path pays the description exchange on top of the delivery,
	// the warm path only the delivery.
	if _, _, err := f.Connect("pub", "sub", transport.FaultProfile{Latency: 2 * time.Millisecond}); err != nil {
		return nil, err
	}

	// runPhase streams msgs objects and measures delivery count and
	// virtual time to first delivery on the current sub incarnation.
	runPhase := func(name string, node *transport.Node) (registryRow, error) {
		// Handlers run concurrently, so each reports its own delivery
		// time and the earliest one is the first delivery.
		delivered := make(chan time.Time, msgs)
		var first time.Time
		start := f.Clock().Now()
		if err := node.Peer().OnReceive(fixtures.PersonA{}, func(d transport.Delivery) {
			delivered <- f.Clock().Now()
		}); err != nil {
			return registryRow{}, err
		}
		for i := 0; i < msgs; i++ {
			if _, err := pub.Peer().Broadcast(fixtures.PersonB{PersonName: name, PersonAge: i}); err != nil {
				return registryRow{}, err
			}
		}
		got := 0
		deadline := time.Now().Add(60 * time.Second)
		for got < msgs && time.Now().Before(deadline) {
			select {
			case t := <-delivered:
				if first.IsZero() || t.Before(first) {
					first = t
				}
				got++
			case <-time.After(10 * time.Millisecond):
			}
		}
		st := node.Peer().Stats().Snapshot()
		return registryRow{
			Name:           name,
			Messages:       msgs,
			Delivered:      got,
			DescFetches:    st.TypeInfoRequests,
			DescWarmLoaded: st.DescWarmLoaded,
			DescStoreHits:  st.DescStoreHits,
			TTFDMs:         float64(first.Sub(start).Nanoseconds()) / 1e6,
		}, nil
	}

	cold, err := runPhase("registry-cold", sub)
	if err != nil {
		return nil, err
	}
	if err := f.Crash("sub"); err != nil {
		return nil, err
	}
	sub2, err := f.Restart("sub")
	if err != nil {
		return nil, err
	}
	warm, err := runPhase("registry-warm", sub2)
	if err != nil {
		return nil, err
	}
	return []registryRow{cold, warm}, nil
}
