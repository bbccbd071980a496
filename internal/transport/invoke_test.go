package transport

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"pti/internal/fixtures"
	"pti/internal/registry"
	"pti/internal/wire"
)

// PanicSvc panics on demand — the misbehaving exported method of the
// panic-recovery regression test.
type PanicSvc struct{ Calls int }

// Boom always panics.
func (s *PanicSvc) Boom() string { panic("kaboom") }

// Ping proves the peer is still serving.
func (s *PanicSvc) Ping() string { s.Calls++; return "pong" }

func TestInvokePanicRecovered(t *testing.T) {
	a, b, _, cb := remotePair(t)
	if err := a.Export("svc", &PanicSvc{}); err != nil {
		t.Fatal(err)
	}
	ref, err := b.Remote(cb, "svc", PanicSvc{})
	if err != nil {
		t.Fatal(err)
	}

	_, err = ref.Call("Boom")
	if !errors.Is(err, ErrRemotePanic) {
		t.Fatalf("panic reply: got %v, want ErrRemotePanic", err)
	}
	if !errors.Is(err, ErrRemote) {
		t.Errorf("panic reply must still match ErrRemote: %v", err)
	}

	// The worker goroutine survived: the same peer keeps serving.
	out, err := ref.Call("Ping")
	if err != nil {
		t.Fatalf("peer stopped serving after panic: %v", err)
	}
	if out[0] != "pong" {
		t.Errorf("Ping = %v", out)
	}
	if got := a.Stats().Snapshot().InvokePanics; got != 1 {
		t.Errorf("InvokePanics = %d", got)
	}
}

// EchoSvc is a trivial service for the error-identity and pipelining
// scenarios; Nap models a slow method on the peer's clock.
type EchoSvc struct{}

// Echo returns its argument.
func (EchoSvc) Echo(s string) string { return s }

// Mystery returns a type the caller has not registered.
func (EchoSvc) Mystery() fixtures.PersonB {
	return fixtures.PersonB{PersonName: "opaque", PersonAge: 9}
}

func TestInvokeErrorIdentityAcrossFabric(t *testing.T) {
	// Both directions of the Section 6 error paths, across a live
	// fabric link with reliable framing: the sentinel identity must
	// survive the wire, not just the in-process pipe.
	f := NewFabric(42, WithVirtualClock())
	defer func() { _ = f.Close() }()

	srv, err := f.AddPeerWithRegistry("srv", registry.New(),
		WithReliableLinks())
	if err != nil {
		t.Fatal(err)
	}
	cli, err := f.AddPeerWithRegistry("cli", registry.New(),
		WithReliableLinks())
	if err != nil {
		t.Fatal(err)
	}
	lan, _ := NamedProfile("lan")
	if _, _, err := f.Connect("srv", "cli", lan); err != nil {
		t.Fatal(err)
	}
	conn, ok := cli.ConnTo("srv")
	if !ok {
		t.Fatal("no conn to srv")
	}

	// Lookup of an unknown export: ErrNoSuchExport must be matchable.
	if _, err := cli.Peer().Remote(conn, "ghost", EchoSvc{}); !errors.Is(err, ErrNoSuchExport) {
		t.Fatalf("unknown export: got %v, want ErrNoSuchExport", err)
	}

	// Invoke after the export vanished: same sentinel, invoke path.
	if err := srv.Peer().Export("svc", EchoSvc{}); err != nil {
		t.Fatal(err)
	}
	ref, err := cli.Peer().Remote(conn, "svc", EchoSvc{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Peer().Unexport("svc")
	_, err = ref.Call("Echo", "x")
	if !errors.Is(err, ErrNoSuchExport) {
		t.Fatalf("invoke on unexported: got %v, want ErrNoSuchExport", err)
	}
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("expected *RemoteError, got %T", err)
	}
}

// GateSvc blocks until released, for saturating the worker pool under
// the real clock.
type GateSvc struct {
	Gate    chan struct{} `wire:"-"`
	Started chan struct{} `wire:"-"`
}

// Hold waits for the gate.
func (s *GateSvc) Hold() string {
	s.Started <- struct{}{}
	<-s.Gate
	return "done"
}

func TestInvokeServerShedsOverload(t *testing.T) {
	// Server budget: 1 worker, 0 queued. The first invoke occupies
	// the worker; everything arriving behind it is shed with a coded
	// reply matching ErrInvokeQueueFull.
	regA := registry.New()
	a := NewPeer(regA, WithName("server"), WithInvokeConcurrency(1, 0))
	b := NewPeer(registry.New(), WithName("client"))
	_, cb := Connect(a, b)
	t.Cleanup(func() { _ = a.Close(); _ = b.Close() })

	svc := &GateSvc{Gate: make(chan struct{}), Started: make(chan struct{}, 1)}
	if err := a.Export("svc", svc); err != nil {
		t.Fatal(err)
	}
	ref, err := b.Remote(cb, "svc", GateSvc{})
	if err != nil {
		t.Fatal(err)
	}

	first, err := ref.CallAsync("Hold")
	if err != nil {
		t.Fatal(err)
	}
	<-svc.Started // the worker slot is definitely occupied

	_, shedErr := ref.Call("Hold")
	if !errors.Is(shedErr, ErrInvokeQueueFull) {
		t.Fatalf("overload: got %v, want ErrInvokeQueueFull", shedErr)
	}
	// A server-side shed is a remote failure, so the generic match
	// holds too.
	if !errors.Is(shedErr, ErrRemote) {
		t.Errorf("shed reply must match ErrRemote: %v", shedErr)
	}

	close(svc.Gate)
	if out, err := first.Wait(); err != nil || out[0] != "done" {
		t.Fatalf("first call: %v %v", out, err)
	}
	if got := a.Stats().Snapshot().InvokesShed; got == 0 {
		t.Error("InvokesShed = 0, want > 0")
	}
}

func TestInvokeClientFailFastPacing(t *testing.T) {
	// Client window of 1 in fail-fast mode: the second CallAsync is
	// refused locally, before anything travels.
	a := NewPeer(registry.New(), WithName("server"))
	b := NewPeer(registry.New(), WithName("client"),
		WithInvokePacing(1, 0), WithInvokeFailFast())
	_, cb := Connect(a, b)
	t.Cleanup(func() { _ = a.Close(); _ = b.Close() })

	svc := &GateSvc{Gate: make(chan struct{}), Started: make(chan struct{}, 1)}
	if err := a.Export("svc", svc); err != nil {
		t.Fatal(err)
	}
	ref, err := b.Remote(cb, "svc", GateSvc{})
	if err != nil {
		t.Fatal(err)
	}

	sent := a.Stats().Snapshot().Invokes
	first, err := ref.CallAsync("Hold")
	if err != nil {
		t.Fatal(err)
	}
	<-svc.Started
	if _, err := ref.CallAsync("Hold"); !errors.Is(err, ErrInvokeQueueFull) {
		t.Fatalf("full window: got %v, want ErrInvokeQueueFull", err)
	}
	if got := a.Stats().Snapshot().Invokes; got != sent+1 {
		t.Errorf("shed call reached the server: invokes %d -> %d", sent, got)
	}
	close(svc.Gate)
	if _, err := first.Wait(); err != nil {
		t.Fatal(err)
	}
}

// SleepySvc exposes a slow and a fast method; the slow one consumes
// virtual service time through an injected Peer.Pause (a func field:
// describing a *Peer field would drag the whole peer struct graph
// into the type description).
type SleepySvc struct {
	nap func(time.Duration)
}

// Slow burns 100ms of virtual time.
func (s *SleepySvc) Slow() string { s.nap(100 * time.Millisecond); return "slow" }

// Fast returns immediately.
func (s *SleepySvc) Fast() string { return "fast" }

func TestInvokePipelinedOutOfOrderCompletion(t *testing.T) {
	// A slow method must not head-of-line-block a fast one issued
	// behind it on the same connection: the fast reply overtakes by
	// tens of virtual milliseconds.
	f := NewFabric(7, WithVirtualClock())
	defer func() { _ = f.Close() }()

	srv, err := f.AddPeerWithRegistry("srv", registry.New())
	if err != nil {
		t.Fatal(err)
	}
	cli, err := f.AddPeerWithRegistry("cli", registry.New())
	if err != nil {
		t.Fatal(err)
	}
	lan, _ := NamedProfile("lan")
	if _, _, err := f.Connect("srv", "cli", lan); err != nil {
		t.Fatal(err)
	}
	conn, _ := cli.ConnTo("srv")

	if err := srv.Peer().Export("svc", &SleepySvc{nap: srv.Peer().Pause}); err != nil {
		t.Fatal(err)
	}
	ref, err := cli.Peer().Remote(conn, "svc", SleepySvc{})
	if err != nil {
		t.Fatal(err)
	}

	clk := f.Clock()
	start := clk.Now()
	slow, err := ref.CallAsync("Slow")
	if err != nil {
		t.Fatal(err)
	}
	fast, err := ref.CallAsync("Fast")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fast.Wait(); err != nil {
		t.Fatal(err)
	}
	fastElapsed := clk.Now().Sub(start)
	if _, err := slow.Wait(); err != nil {
		t.Fatal(err)
	}
	slowElapsed := clk.Now().Sub(start)

	if fastElapsed >= 100*time.Millisecond {
		t.Errorf("fast call head-of-line-blocked: %v", fastElapsed)
	}
	if slowElapsed < 100*time.Millisecond {
		t.Errorf("slow call returned early: %v", slowElapsed)
	}
}

func TestNativizeResultBindFallback(t *testing.T) {
	// The server returns a type the client has no registration for:
	// the result arrives as the raw generic *wire.Object, not an
	// error — the documented silent-fallback contract.
	a := NewPeer(registry.New(), WithName("server"))
	b := NewPeer(registry.New(), WithName("client"))
	_, cb := Connect(a, b)
	t.Cleanup(func() { _ = a.Close(); _ = b.Close() })

	if err := a.Export("svc", EchoSvc{}); err != nil {
		t.Fatal(err)
	}
	ref, err := b.Remote(cb, "svc", EchoSvc{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := ref.Call("Mystery")
	if err != nil {
		t.Fatal(err)
	}
	obj, ok := out[0].(*wire.Object)
	if !ok {
		t.Fatalf("unregistered result = %T, want *wire.Object", out[0])
	}
	if obj.TypeName != "PersonB" {
		t.Errorf("TypeName = %q", obj.TypeName)
	}
}

func TestInvokeConcurrentCallsRace(t *testing.T) {
	// Exercised under -race by `make check`: many goroutines pipeline
	// calls over one connection, then a second wave races Peer.Close.
	a, b, _, cb := remotePair(t)
	if err := a.Export("greeter", &Greeter{Prefix: "hi "}); err != nil {
		t.Fatal(err)
	}
	ref, err := b.Remote(cb, "greeter", Greeter{})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				out, err := ref.Call("Greet", fixtures.PersonA{Name: fmt.Sprintf("g%d-%d", g, i)})
				if err != nil {
					t.Errorf("concurrent call: %v", err)
					return
				}
				if out[0] != fmt.Sprintf("hi g%d-%d", g, i) {
					t.Errorf("cross-talk between pipelined replies: %v", out)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Second wave: calls racing the client peer's Close. Outcomes may
	// be success or a typed shutdown error; anything else (or a hang,
	// or a data race) fails.
	var raceWG sync.WaitGroup
	for g := 0; g < 8; g++ {
		raceWG.Add(1)
		go func() {
			defer raceWG.Done()
			for i := 0; i < 10; i++ {
				_, err := ref.Call("Greet", fixtures.PersonA{Name: "x"})
				if err == nil {
					continue
				}
				if errors.Is(err, ErrPeerClosed) || errors.Is(err, ErrClosed) ||
					errors.Is(err, ErrRequestTimeout) || errors.Is(err, ErrRemote) {
					return
				}
				t.Errorf("unexpected error racing close: %v", err)
				return
			}
		}()
	}
	_ = b.Close()
	raceWG.Wait()
}
