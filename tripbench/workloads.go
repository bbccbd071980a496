package main

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"pti"
	"pti/internal/transport"
)

// opTimeout bounds the wait for any one op; an op that has not
// completed by then counts as failed.
const opTimeout = 5 * time.Second

// workload is one named closed-loop traffic mix.
type workload struct {
	name string
	// inflight is the number of ops the timed run keeps in flight:
	// objects on the wire for the stream, caller goroutines for the
	// invoke workload.
	inflight int
	setup    func(seed int64, obs transport.Observer) (env, error)
	layers   func(seed int64) layerInput
}

// env is one set-up workload: live peers, warm caches, and the closed
// loop that drives them.
type env interface {
	// loop runs ops until the deadline with inflight ops outstanding,
	// then waits for the outstanding ones.
	loop(m *meter, until time.Time, inflight int)
	// counters sums the protocol counters of every peer the env has
	// run, including subscribers it has already closed.
	counters() transport.StatsSnapshot
	// reliable reports the publisher link's reliable-layer counters,
	// false when the workload runs plain links.
	reliable() (transport.ReliableLinkStats, bool)
	// check verifies the subscriber accounting invariant
	// ObjectsReceived == ObjectsDelivered + ObjectsDropped.
	check() error
	close()
}

// meter counts one run's ops and their latencies; tr is non-nil in a
// traced run, which keeps one op in flight.
type meter struct {
	attempted atomic.Int64
	failed    atomic.Int64
	lat       *latencies
	tr        *tracer
}

func newMeter(seed int64, tr *tracer) *meter {
	return &meter{lat: newLatencies(seed), tr: tr}
}

var workloads = []workload{
	{
		name:     "stream-warm",
		inflight: 4,
		setup:    setupStream,
		layers:   streamLayers,
	},
	{
		name:     "first-contact",
		inflight: 1,
		setup:    setupContact,
		layers:   contactLayers,
	},
	{
		name:     "invoke-soap",
		inflight: 2,
		setup:    setupInvoke,
		layers:   invokeLayers,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func relaxed() pti.Option { return pti.WithPolicy(pti.RelaxedPolicy(1)) }

// peerOpts adds the observer, when tracing, to a peer's options.
func peerOpts(obs transport.Observer, opts ...pti.PeerOption) []pti.PeerOption {
	if obs != nil {
		opts = append(opts, pti.WithObserver(obs))
	}
	return opts
}

// delivery is what a subscriber's handler hands back to the loop.
type delivery struct {
	bound interface{}
	end   time.Time
}

// handlerTo returns a handler that stamps its return time and passes
// the bound object on. The channel is sized above the ops in flight,
// so the send never blocks a protocol goroutine; a full channel would
// drop the completion, and the op would time out as failed.
func handlerTo(ch chan<- delivery) func(pti.Delivery) {
	return func(d pti.Delivery) {
		select {
		case ch <- delivery{bound: d.Bound, end: time.Now()}:
		default:
		}
	}
}

// doneCap sizes the completion channels: well above any workload's
// ops in flight.
const doneCap = 64

// waitTimer is a reusable op-timeout timer; a fresh time.After per
// op would add its allocations to the measured ones.
type waitTimer struct{ t *time.Timer }

func newWaitTimer() waitTimer {
	t := time.NewTimer(opTimeout)
	t.Stop()
	return waitTimer{t}
}

func (w waitTimer) arm() <-chan time.Time {
	if !w.t.Stop() {
		select {
		case <-w.t.C:
		default:
		}
	}
	w.t.Reset(opTimeout)
	return w.t.C
}

// statsSum adds or subtracts every counter of two snapshots.
func statsSum(a, b transport.StatsSnapshot, sign int) transport.StatsSnapshot {
	out := a
	ov := reflect.ValueOf(&out).Elem()
	bv := reflect.ValueOf(b)
	for i := 0; i < ov.NumField(); i++ {
		f := ov.Field(i)
		if sign < 0 {
			f.SetUint(f.Uint() - bv.Field(i).Uint())
		} else {
			f.SetUint(f.Uint() + bv.Field(i).Uint())
		}
	}
	return out
}

func checkSubscriber(name string, s transport.StatsSnapshot) error {
	if s.ObjectsReceived != s.ObjectsDelivered+s.ObjectsDropped {
		return fmt.Errorf("%s: ObjectsReceived %d != ObjectsDelivered %d + ObjectsDropped %d",
			name, s.ObjectsReceived, s.ObjectsDelivered, s.ObjectsDropped)
	}
	return nil
}

// ---- stream-warm ----

// streamPool is the number of distinct generated stream objects; op
// i sends object i mod streamPool stamped with sequence number i.
const streamPool = 1024

// streamWarmup is the number of deliveries set-up makes before the
// loop is considered warm.
const streamWarmup = 256

type streamEnv struct {
	pub, sub *pti.Peer
	conn     *pti.Conn
	pool     []Reading
	done     chan delivery
	next     uint64
	sent     [doneCap]time.Time // send times by seq mod doneCap
	timer    waitTimer
	// stuck is set once a delivery timed out: a late completion could
	// no longer be told from a current one, so the env sends no more.
	stuck bool
}

func streamObjects(seed int64, n int) []Reading {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]Reading, n)
	for i := range pool {
		pool[i] = newReading(rng, i)
	}
	return pool
}

func setupStream(seed int64, obs transport.Observer) (env, error) {
	rel := pti.WithReliableLinks(pti.WithSendQueue(256), pti.WithAdaptiveRTO())
	e := &streamEnv{pool: streamObjects(seed, streamPool), done: make(chan delivery, doneCap), timer: newWaitTimer()}

	subRT := pti.New(relaxed(), pti.WithBinary())
	if err := subRT.Register(SensorReading{}); err != nil {
		return nil, err
	}
	e.sub = subRT.NewPeer("subscriber", peerOpts(obs, rel)...)
	if err := e.sub.OnReceive(SensorReading{}, handlerTo(e.done)); err != nil {
		e.close()
		return nil, err
	}
	if err := e.sub.Listen("127.0.0.1:0"); err != nil {
		e.close()
		return nil, err
	}

	pubRT := pti.New(relaxed(), pti.WithBinary())
	if err := pubRT.Register(Reading{}); err != nil {
		e.close()
		return nil, err
	}
	e.pub = pubRT.NewPeer("publisher", peerOpts(obs, rel)...)
	conn, err := e.pub.Dial(e.sub.Addr())
	if err != nil {
		e.close()
		return nil, err
	}
	e.conn = conn

	m := newMeter(seed, nil)
	e.run(m, time.Now().Add(opTimeout), 4, streamWarmup)
	if f := m.failed.Load(); f > 0 {
		e.close()
		return nil, fmt.Errorf("stream-warm: %d of %d warm-up deliveries failed", f, m.attempted.Load())
	}
	return e, nil
}

func (e *streamEnv) loop(m *meter, until time.Time, inflight int) {
	e.run(m, until, inflight, -1)
}

// run sends until the deadline or until limit ops (limit < 0: no
// limit), keeping inflight objects outstanding.
func (e *streamEnv) run(m *meter, until time.Time, inflight, limit int) {
	outstanding := 0
	for !e.stuck {
		for outstanding < inflight && limit != 0 && time.Now().Before(until) {
			limit--
			seq := e.next
			e.next++
			obj := e.pool[seq%streamPool]
			obj.Seq = seq
			m.attempted.Add(1)
			if m.tr != nil {
				m.tr.begin()
			}
			e.sent[seq%doneCap] = time.Now()
			if err := e.pub.SendObject(e.conn, obj); err != nil {
				m.failed.Add(1)
				continue
			}
			outstanding++
		}
		if outstanding == 0 {
			return
		}
		select {
		case d := <-e.done:
			outstanding--
			got, ok := d.bound.(*SensorReading)
			if !ok {
				m.failed.Add(1)
				continue
			}
			seq := got.ReadingSeq
			want := e.pool[seq%streamPool]
			want.Seq = seq
			if seq >= e.next || !sameReading(want, got) {
				m.failed.Add(1)
				continue
			}
			t0 := e.sent[seq%doneCap]
			m.lat.add(d.end.Sub(t0))
			if m.tr != nil && !m.tr.finishObject(t0, d.end) {
				m.failed.Add(1)
			}
		case <-e.timer.arm():
			m.failed.Add(int64(outstanding))
			e.stuck = true
		}
	}
}

func (e *streamEnv) counters() transport.StatsSnapshot {
	return statsSum(e.pub.Stats().Snapshot(), e.sub.Stats().Snapshot(), 1)
}

func (e *streamEnv) reliable() (transport.ReliableLinkStats, bool) {
	return e.conn.ReliableSnapshot()
}

func (e *streamEnv) check() error {
	return checkSubscriber("subscriber", e.sub.Stats().Snapshot())
}

func (e *streamEnv) close() {
	if e.pub != nil {
		_ = e.pub.Close()
	}
	if e.sub != nil {
		_ = e.sub.Close()
	}
}

// ---- first-contact ----

type contactEnv struct {
	pub    *pti.Peer
	addr   string // the subscribers' listening address
	obs    transport.Observer
	rng    *rand.Rand
	done   chan delivery
	timer  waitTimer
	rounds int
	// closed accumulates the counters of subscribers already closed;
	// bad records the first failure that stops the env: a round that
	// could not run, or a subscriber that broke the accounting
	// invariant.
	closed transport.StatsSnapshot
	bad    error
}

func setupContact(seed int64, obs transport.Observer) (env, error) {
	e := &contactEnv{
		addr:  "127.0.0.1:0",
		obs:   obs,
		rng:   rand.New(rand.NewSource(seed)),
		done:  make(chan delivery, doneCap),
		timer: newWaitTimer(),
	}
	pubRT := pti.New(relaxed(), pti.WithBinary())
	for _, p := range contactPairs {
		if err := pubRT.Register(p.pub); err != nil {
			return nil, err
		}
	}
	e.pub = pubRT.NewPeer("publisher", peerOpts(obs)...)
	// One warm-up round leaves the publisher side warm, so every
	// later op is cold on the subscriber side only.
	m := newMeter(seed, nil)
	if err := e.round(m, time.Now().Add(opTimeout)); err != nil {
		e.close()
		return nil, err
	}
	if f := m.failed.Load(); f > 0 {
		e.close()
		return nil, fmt.Errorf("first-contact: %d of %d warm-up deliveries failed", f, m.attempted.Load())
	}
	return e, nil
}

func (e *contactEnv) loop(m *meter, until time.Time, _ int) {
	for e.bad == nil && time.Now().Before(until) {
		if err := e.round(m, until); err != nil {
			if e.bad == nil {
				e.bad = err
			}
		}
	}
}

// round brings up a fresh subscriber with empty caches and the eight
// interests registered in a seeded order, then sends it one object of
// each publisher type, one at a time, in another seeded order.
func (e *contactEnv) round(m *meter, until time.Time) error {
	e.rounds++
	rt := pti.New(relaxed(), pti.WithBinary())
	for _, i := range e.rng.Perm(len(contactPairs)) {
		if err := rt.Register(contactPairs[i].sub); err != nil {
			return err
		}
	}
	sub := rt.NewPeer(fmt.Sprintf("subscriber-%d", e.rounds), peerOpts(e.obs)...)
	var conn *pti.Conn
	defer func() {
		// The subscriber closes first, so the TCP TIME_WAIT entry of
		// each round lands on the one listening port all rounds share
		// rather than holding an ephemeral port for a minute: at a few
		// hundred rounds a second, consecutive runs would otherwise
		// fill most of the ephemeral port range.
		_ = sub.Close()
		if conn != nil {
			_ = conn.Close()
		}
		s := sub.Stats().Snapshot()
		e.closed = statsSum(e.closed, s, 1)
		if err := checkSubscriber(fmt.Sprintf("subscriber-%d", e.rounds), s); err != nil && e.bad == nil {
			e.bad = err
		}
	}()
	for _, p := range contactPairs {
		if err := sub.OnReceive(p.sub, handlerTo(e.done)); err != nil {
			return err
		}
	}
	if err := sub.Listen(e.addr); err != nil {
		return err
	}
	e.addr = sub.Addr()
	var err error
	if conn, err = e.pub.Dial(e.addr); err != nil {
		return err
	}
	for _, i := range e.rng.Perm(len(contactPairs)) {
		if !time.Now().Before(until) {
			return nil
		}
		p := contactPairs[i]
		obj := p.gen(e.rng)
		m.attempted.Add(1)
		if m.tr != nil {
			m.tr.begin()
		}
		t0 := time.Now()
		if err := e.pub.SendObject(conn, obj); err != nil {
			m.failed.Add(1)
			continue
		}
		select {
		case d := <-e.done:
			if !p.match(obj, d.bound) {
				m.failed.Add(1)
				continue
			}
			m.lat.add(d.end.Sub(t0))
			if m.tr != nil && !m.tr.finishObject(t0, d.end) {
				m.failed.Add(1)
			}
		case <-e.timer.arm():
			m.failed.Add(1)
			return errors.New("first-contact: delivery timed out")
		}
	}
	return nil
}

func (e *contactEnv) counters() transport.StatsSnapshot {
	return statsSum(e.pub.Stats().Snapshot(), e.closed, 1)
}

func (e *contactEnv) reliable() (transport.ReliableLinkStats, bool) {
	return transport.ReliableLinkStats{}, false
}

func (e *contactEnv) check() error { return e.bad }

func (e *contactEnv) close() {
	if e.pub != nil {
		_ = e.pub.Close()
	}
}

// ---- invoke-soap ----

// invokePool is the number of distinct generated calls; caller c of n
// makes calls c, c+n, c+2n, ... mod invokePool.
const invokePool = 1024

// invokeWarmup is the number of calls set-up makes before the loop is
// considered warm.
const invokeWarmup = 256

type invokeEnv struct {
	server, client *pti.Peer
	ref            *pti.RemoteRef
	pool           []invokeArgs
}

func invokeCalls(seed int64, n int) []invokeArgs {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]invokeArgs, n)
	for i := range pool {
		pool[i] = newInvokeArgs(rng)
	}
	return pool
}

func setupInvoke(seed int64, obs transport.Observer) (env, error) {
	e := &invokeEnv{pool: invokeCalls(seed, invokePool)}
	serverRT := pti.New(relaxed(), pti.WithSOAP())
	for _, v := range []interface{}{LedgerEntry{}, AuditLedger{}} {
		if err := serverRT.Register(v); err != nil {
			return nil, err
		}
	}
	e.server = serverRT.NewPeer("server", peerOpts(obs)...)
	if err := e.server.Export("ledger", &AuditLedger{Book: "general"}); err != nil {
		e.close()
		return nil, err
	}
	if err := e.server.Listen("127.0.0.1:0"); err != nil {
		e.close()
		return nil, err
	}

	clientRT := pti.New(relaxed(), pti.WithSOAP())
	for _, v := range []interface{}{LedgerEntry{}, Ledger{}} {
		if err := clientRT.Register(v); err != nil {
			e.close()
			return nil, err
		}
	}
	e.client = clientRT.NewPeer("client", peerOpts(obs)...)
	conn, err := e.client.Dial(e.server.Addr())
	if err != nil {
		e.close()
		return nil, err
	}
	if e.ref, err = e.client.Remote(conn, "ledger", Ledger{}); err != nil {
		e.close()
		return nil, err
	}
	m := newMeter(seed, nil)
	e.run(m, time.Now().Add(opTimeout), 2, invokeWarmup)
	if f := m.failed.Load(); f > 0 {
		e.close()
		return nil, fmt.Errorf("invoke-soap: %d of %d warm-up calls failed", f, m.attempted.Load())
	}
	return e, nil
}

// sameEntry reports whether a call's results are exactly want.
func sameEntry(res []interface{}, want LedgerEntry) bool {
	if len(res) != 1 {
		return false
	}
	switch got := res[0].(type) {
	case LedgerEntry:
		return got == want
	case *LedgerEntry:
		return got != nil && *got == want
	}
	return false
}

func (e *invokeEnv) loop(m *meter, until time.Time, callers int) {
	e.run(m, until, callers, -1)
}

// run drives callers goroutines, each calling until the deadline or
// until it has made its share of limit calls (limit < 0: no limit).
func (e *invokeEnv) run(m *meter, until time.Time, callers, limit int) {
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; (limit < 0 || i < limit) && time.Now().Before(until); i += callers {
				a := e.pool[i%invokePool]
				m.attempted.Add(1)
				if m.tr != nil {
					m.tr.begin()
				}
				t0 := time.Now()
				res, err := e.ref.Call("Stamp", a.note, a.entry)
				end := time.Now()
				if err != nil || !sameEntry(res, stamp(a.entry, a.note)) {
					m.failed.Add(1)
					continue
				}
				m.lat.add(end.Sub(t0))
				if m.tr != nil && !m.tr.finishCall(t0, end) {
					m.failed.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
}

func (e *invokeEnv) counters() transport.StatsSnapshot {
	return statsSum(e.server.Stats().Snapshot(), e.client.Stats().Snapshot(), 1)
}

func (e *invokeEnv) reliable() (transport.ReliableLinkStats, bool) {
	return transport.ReliableLinkStats{}, false
}

func (e *invokeEnv) check() error {
	return checkSubscriber("client", e.client.Stats().Snapshot())
}

func (e *invokeEnv) close() {
	if e.client != nil {
		_ = e.client.Close()
	}
	if e.server != nil {
		_ = e.server.Close()
	}
}
