package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"pti/internal/typedesc"
)

// The connection-lifecycle subsystem: a per-connection failure
// detector, automatic reconnect with capped exponential backoff, and
// reliable-session resume (see docs/health.md).
//
// A Remote is a managed outbound link: the peer owns a DialFunc for
// it and keeps the link alive across outages. A monitor goroutine
// watches the conn's liveness signal — any frame read off the wire
// counts, so acks piggyback as heartbeats while traffic flows, and
// explicit MsgPing probes only go out on idle links. Silence past the
// suspect window (SRTT-informed when the reliable layer has samples)
// marks the remote suspect; silence past twice that confirms the
// failure and hands the link to the redial loop.
//
// The redial loop backs off exponentially with deterministic jitter.
// On success it runs the resume handshake: the sender names the
// reliable epoch it wants to continue, the receiver answers with its
// last contiguous seq, and the sender replays only the unacked
// in-flight window — under the old numbering when the receiver still
// holds the session, renumbered beneath a fresh epoch when it does
// not (a restarted process). Either way no admitted frame is
// abandoned by a clean reconnect.
//
// A circuit breaker (WithMaxRedials) quarantines a remote whose
// redials keep failing: the carried reliable link is killed — its
// queue abandoned and counted — so publishers fail fast instead of
// buffering into a void, and redialing stops so a flapping peer
// cannot burn CPU on redial storms. Quarantine is terminal until Retry
// re-arms the remote.

// HealthState is a managed remote's position in the failure
// detector's state machine: healthy → suspect → quarantined, with
// recovery back to healthy from either degraded state.
type HealthState int

const (
	// HealthHealthy: traffic (or pongs) within the suspect window.
	HealthHealthy HealthState = iota
	// HealthSuspect: silent past the suspect window, or disconnected
	// with the redial loop working the link.
	HealthSuspect
	// HealthQuarantined: the redial circuit breaker opened; the
	// reliable session is dead and sends fail fast.
	HealthQuarantined
)

func (s HealthState) String() string {
	switch s {
	case HealthHealthy:
		return "healthy"
	case HealthSuspect:
		return "suspect"
	case HealthQuarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("health(%d)", int(s))
	}
}

// LifecycleConfig tunes the failure detector and reconnect machinery
// of every Remote the peer manages.
type LifecycleConfig struct {
	// Heartbeat is the liveness probe cadence: the monitor checks the
	// link this often and sends a MsgPing when no frame arrived within
	// the interval (default 500ms).
	Heartbeat time.Duration
	// SuspectAfter is the silence that marks a remote suspect; twice
	// it confirms the failure. Zero derives it as 4×Heartbeat. When
	// the reliable layer has RTT samples the window is floored at
	// 4×SRTT + Heartbeat, so a slow link is not declared dead for
	// being slow.
	SuspectAfter time.Duration
	// RedialBackoff is the initial reconnect delay (default 50ms);
	// each failed dial doubles it.
	RedialBackoff time.Duration
	// RedialMaxBackoff caps the reconnect delay (default 2s).
	RedialMaxBackoff time.Duration
	// MaxRedials quarantines the remote after this many consecutive
	// dial failures (0 = never, the partition-heals-eventually
	// configuration).
	MaxRedials int
}

func defaultLifecycleConfig() LifecycleConfig {
	return LifecycleConfig{
		Heartbeat:        500 * time.Millisecond,
		RedialBackoff:    50 * time.Millisecond,
		RedialMaxBackoff: 2 * time.Second,
	}
}

// WithHeartbeat sets the liveness probe cadence for managed remotes
// (default 500ms).
func WithHeartbeat(d time.Duration) PeerOption {
	return func(p *Peer) {
		if d > 0 {
			p.lifeCfg.Heartbeat = d
		}
	}
}

// WithSuspectAfter sets the silence that marks a managed remote
// suspect (default 4×Heartbeat); twice it confirms the failure.
func WithSuspectAfter(d time.Duration) PeerOption {
	return func(p *Peer) {
		if d > 0 {
			p.lifeCfg.SuspectAfter = d
		}
	}
}

// WithRedialBackoff shapes the reconnect delays of managed remotes:
// initial backoff and its cap (defaults 50ms, 2s).
func WithRedialBackoff(initial, max time.Duration) PeerOption {
	return func(p *Peer) {
		if initial > 0 {
			p.lifeCfg.RedialBackoff = initial
		}
		if max > 0 {
			p.lifeCfg.RedialMaxBackoff = max
		}
	}
}

// WithMaxRedials opens the redial circuit breaker — quarantine — after
// n consecutive dial failures (default 0 = never give up).
func WithMaxRedials(n int) PeerOption {
	return func(p *Peer) {
		if n >= 0 {
			p.lifeCfg.MaxRedials = n
		}
	}
}

// DialFunc (re)establishes the raw byte stream to a managed remote.
// It is called from the reconnect loop, so it must be safe to call
// repeatedly and fail fast while the target is down.
type DialFunc func() (net.Conn, error)

// --- resume handshake wire format -------------------------------------

func encodeResumeReq(epoch uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, epoch)
	return b
}

func decodeResumeReq(body []byte) (uint64, error) {
	if len(body) != 8 {
		return 0, fmt.Errorf("%w: bad resume request", ErrBadFrame)
	}
	return binary.BigEndian.Uint64(body), nil
}

// encodeResumeReply: epoch (8) | cum (8) | found (1).
func encodeResumeReply(epoch, cum uint64, found bool) []byte {
	b := make([]byte, 17)
	binary.BigEndian.PutUint64(b[0:8], epoch)
	binary.BigEndian.PutUint64(b[8:16], cum)
	if found {
		b[16] = 1
	}
	return b
}

func decodeResumeReply(body []byte) (epoch, cum uint64, found bool, err error) {
	if len(body) != 17 {
		return 0, 0, false, fmt.Errorf("%w: bad resume reply", ErrBadFrame)
	}
	return binary.BigEndian.Uint64(body[0:8]),
		binary.BigEndian.Uint64(body[8:16]),
		body[16] == 1, nil
}

// --- Remote -----------------------------------------------------------

// Remote is a lifecycle-managed outbound link (see ManageConn): the
// peer heartbeats it, detects its failure, redials it with capped
// exponential backoff, and resumes its reliable session so the
// unacked in-flight window survives the outage.
type Remote struct {
	peer *Peer
	name string
	dial DialFunc
	cfg  LifecycleConfig

	mu       sync.Mutex
	state    HealthState
	conn     *Conn
	rel      *ReliableLink
	failures int
	lastErr  error
	dialing  bool
	stopping bool
	jitter   uint64 // xorshift state; seeded from (peer, remote) names

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// ManageConn dials name through dial and keeps the link alive: a
// monitor goroutine heartbeats the connection, a reconnect loop
// redials it on failure, and — when the peer sends reliably — the
// reliable session resumes across the redial, replaying the unacked
// window. The first dial is synchronous so a misconfigured target
// fails the call rather than churning in the background.
func (p *Peer) ManageConn(name string, dial DialFunc) (*Remote, error) {
	rm := &Remote{
		peer:   p,
		name:   name,
		dial:   dial,
		cfg:    p.lifeCfg,
		jitter: jitterSeed(p.name, name),
		closed: make(chan struct{}),
	}
	if err := p.registerRemote(rm); err != nil {
		return nil, err
	}
	rw, err := dial()
	if err != nil {
		p.deregisterRemote(rm)
		return nil, fmt.Errorf("transport: manage %s: %w", name, err)
	}
	c := newConnWith(p, rw, nil, rm)
	rm.mu.Lock()
	rm.conn = c
	rm.rel = c.rel.Load()
	rm.mu.Unlock()
	if !rm.spawn(func() { rm.monitorLoop(c) }) {
		_ = c.Close()
		p.deregisterRemote(rm)
		return nil, ErrPeerClosed
	}
	return rm, nil
}

// jitterSeed derives a nonzero xorshift seed from the two endpoint
// names, so redial jitter is deterministic per link yet decorrelated
// across a fleet of peers redialing the same dead node.
func jitterSeed(a, b string) uint64 {
	h := uint64(1469598103934665603) // FNV-1a 64
	for _, s := range [2]string{a, b} {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 1099511628211
		}
	}
	if h == 0 {
		h = 1
	}
	return h
}

// spawn starts a tracked goroutine unless the remote is shutting
// down, keeping the Add strictly ordered before shutdown's Wait.
func (rm *Remote) spawn(f func()) bool {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	if rm.stopping {
		return false
	}
	rm.wg.Add(1)
	go func() {
		defer rm.wg.Done()
		f()
	}()
	return true
}

// Name returns the remote's managed name.
func (rm *Remote) Name() string { return rm.name }

// State returns the remote's current health state.
func (rm *Remote) State() HealthState {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	return rm.state
}

// Conn returns the remote's live connection, nil during an outage.
func (rm *Remote) Conn() *Conn {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	return rm.conn
}

// LastError returns the most recent dial or liveness failure.
func (rm *Remote) LastError() error {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	return rm.lastErr
}

// Reliable returns the remote's reliable sender (nil when the peer
// sends unreliably). The link survives reconnects: it detaches during
// an outage and resumes on the fresh conn.
func (rm *Remote) Reliable() *ReliableLink {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	return rm.rel
}

// send routes one object to the remote: through the reliable link
// when one exists — attached or detached, its queue buffers across
// outages, and a quarantined (dead) link fails fast — else through
// the live conn.
func (rm *Remote) send(v interface{}) error {
	rm.mu.Lock()
	rel := rm.rel
	c := rm.conn
	rm.mu.Unlock()
	if rel != nil {
		return rm.peer.SendObject(rel, v)
	}
	if c != nil {
		return rm.peer.SendObject(c, v)
	}
	return &UnreachableError{LastErr: rm.LastError()}
}

// monitorLoop is the failure detector: one per live conn. Any frame
// read refreshes c.lastHeard; the monitor wakes every Heartbeat,
// pings idle links, suspects past the suspect window and confirms at
// twice it, handing the link to the redial loop.
func (rm *Remote) monitorLoop(c *Conn) {
	p := rm.peer
	hb := rm.cfg.Heartbeat
	timer := p.clock.NewTimer(hb)
	defer timer.Stop()
	for {
		select {
		case <-rm.closed:
			return
		case <-c.done:
			rm.connDown(c, errors.New("transport: connection closed"))
			return
		case <-timer.C():
		}
		silent := p.clock.Now().Sub(time.Unix(0, c.lastHeard.Load()))
		suspectAfter, confirmAfter := rm.detectorWindows(c)
		switch {
		case silent >= confirmAfter:
			rm.connDown(c, fmt.Errorf("transport: %s silent for %v", rm.name, silent))
			return
		case silent >= suspectAfter:
			rm.toSuspect()
			_ = c.send(&Message{Type: MsgPing})
		case silent >= hb:
			// Idle but within the window: probe. The pong (or any
			// frame) refreshes lastHeard before the next wake.
			_ = c.send(&Message{Type: MsgPing})
		default:
			// Traffic is flowing; a suspect that spoke recovered.
			rm.toHealthy("traffic resumed")
		}
		timer.Reset(hb)
	}
}

// detectorWindows computes the suspect/confirm silence thresholds.
// With reliable RTT samples the suspect window is floored at
// 4×SRTT + Heartbeat — a slow link must not read as a dead one.
func (rm *Remote) detectorWindows(c *Conn) (suspect, confirm time.Duration) {
	suspect = rm.cfg.SuspectAfter
	if suspect <= 0 {
		suspect = 4 * rm.cfg.Heartbeat
	}
	if r := c.rel.Load(); r != nil {
		if s := r.Snapshot(); s.SRTT > 0 {
			if adaptive := 4*s.SRTT + rm.cfg.Heartbeat; adaptive > suspect {
				suspect = adaptive
			}
		}
	}
	return suspect, 2 * suspect
}

// connDown confirms a dead conn: tear it down (detaching the managed
// reliable link with its window intact) and start the redial loop.
func (rm *Remote) connDown(c *Conn, cause error) {
	select {
	case <-rm.closed:
		return
	default:
	}
	rm.toSuspect()
	_ = c.Close() // idempotent with the read loop's own teardown
	rm.mu.Lock()
	if rm.conn == c {
		rm.conn = nil
	}
	rm.lastErr = cause
	if rm.dialing {
		rm.mu.Unlock()
		return
	}
	rm.dialing = true
	rm.mu.Unlock()
	if !rm.spawn(rm.redialLoop) {
		rm.mu.Lock()
		rm.dialing = false
		rm.mu.Unlock()
	}
}

// redialLoop re-establishes the link: capped exponential backoff with
// deterministic jitter, a circuit breaker after MaxRedials failures,
// and on success the resume handshake + replay (adopt).
func (rm *Remote) redialLoop() {
	defer func() {
		rm.mu.Lock()
		rm.dialing = false
		rm.mu.Unlock()
	}()
	p := rm.peer
	backoff := rm.cfg.RedialBackoff
	for {
		select {
		case <-rm.closed:
			return
		default:
		}
		rm.mu.Lock()
		failures := rm.failures
		rm.mu.Unlock()
		if rm.cfg.MaxRedials > 0 && failures >= rm.cfg.MaxRedials {
			rm.quarantine()
			return // terminal: Retry re-arms
		}
		if !rm.sleep(backoff + rm.nextJitter(backoff/2)) {
			return
		}
		if backoff *= 2; backoff > rm.cfg.RedialMaxBackoff {
			backoff = rm.cfg.RedialMaxBackoff
		}
		p.stats.add(cPeerRedials, 1)
		rw, err := rm.dial()
		if err != nil {
			rm.recordFailure(err)
			continue
		}
		select {
		case <-rm.closed:
			// Peer.Close raced the dial: discard the fresh stream
			// promptly instead of leaking it past shutdown.
			_ = rw.Close()
			return
		default:
		}
		if rm.adopt(rw) {
			return
		}
	}
}

// quarantine opens the circuit breaker: the carried reliable session
// is dead — its queue abandoned and counted, so Broadcast fails fast
// instead of buffering into a void — and the transition is surfaced
// once per open.
func (rm *Remote) quarantine() {
	rm.mu.Lock()
	if rm.state == HealthQuarantined {
		rm.mu.Unlock()
		return
	}
	rm.state = HealthQuarantined
	rel := rm.rel
	lastErr := rm.lastErr
	rm.mu.Unlock()
	rm.peer.step(cPeerQuarantines, EventPeerQuarantined, typedesc.TypeRef{}, rm.name)
	if rel != nil {
		rel.shutdown(&UnreachableError{Attempts: rm.cfg.MaxRedials, LastErr: lastErr})
	}
}

// adopt installs a freshly dialed stream: run the resume handshake
// when a reliable session survives, replay the unacked window, and
// restart the monitor.
func (rm *Remote) adopt(rw net.Conn) bool {
	p := rm.peer
	rm.mu.Lock()
	rel := rm.rel
	rm.mu.Unlock()
	if rel != nil && rel.isClosed() {
		rel = nil // quarantine killed the session; start fresh
	}
	c := newConnWith(p, rw, rel, rm)
	detail := "reconnected"
	if rel != nil {
		epoch := rel.sessionEpoch()
		reply, err := c.request(MsgResumeRequest, encodeResumeReq(epoch))
		if err != nil {
			_ = c.Close()
			rm.recordFailure(fmt.Errorf("resume handshake: %w", err))
			return false
		}
		repEpoch, cum, found, err := decodeResumeReply(reply.Body)
		if err != nil {
			_ = c.Close()
			rm.recordFailure(fmt.Errorf("resume handshake: %w", err))
			return false
		}
		same := found && repEpoch == epoch
		replayed := rel.resume(connRaw{c}, same, cum)
		if same {
			p.stats.add(cRelSessionsResumed, 1)
			detail = fmt.Sprintf("session resumed at seq %d, %d frames replayed", cum, replayed)
		} else {
			p.stats.add(cRelSessionsFresh, 1)
			detail = fmt.Sprintf("fresh epoch, %d frames replayed", replayed)
		}
	} else if fresh := c.rel.Load(); fresh != nil {
		// The old session was killed (quarantine): newConnWith built a
		// fresh managed link; nothing to replay.
		rm.mu.Lock()
		rm.rel = fresh
		rm.mu.Unlock()
	}
	rm.mu.Lock()
	rm.conn = c
	rm.failures = 0
	rm.mu.Unlock()
	rm.toHealthy(detail)
	if !rm.spawn(func() { rm.monitorLoop(c) }) {
		return true // shutting down; Close tears the conn down
	}
	return true
}

// toSuspect transitions healthy → suspect, surfacing the event once.
func (rm *Remote) toSuspect() {
	rm.mu.Lock()
	if rm.state != HealthHealthy {
		rm.mu.Unlock()
		return
	}
	rm.state = HealthSuspect
	rm.mu.Unlock()
	rm.peer.step(cPeerSuspects, EventPeerSuspect, typedesc.TypeRef{}, rm.name)
}

// toHealthy transitions suspect/quarantined → healthy, surfacing the
// recovery once.
func (rm *Remote) toHealthy(detail string) {
	rm.mu.Lock()
	if rm.state == HealthHealthy {
		rm.mu.Unlock()
		return
	}
	rm.state = HealthHealthy
	rm.mu.Unlock()
	rm.peer.step(cPeerRecoveries, EventPeerRecovered, typedesc.TypeRef{}, rm.name, ": ", detail)
}

// recordFailure counts one failed dial attempt.
func (rm *Remote) recordFailure(err error) {
	rm.mu.Lock()
	rm.failures++
	rm.lastErr = err
	rm.mu.Unlock()
}

// sleep waits on the peer's clock, returning false when the remote
// shut down mid-wait.
func (rm *Remote) sleep(d time.Duration) bool {
	t := rm.peer.clock.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C():
		return true
	case <-rm.closed:
		return false
	}
}

// nextJitter draws the next deterministic jitter in [0, max).
func (rm *Remote) nextJitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	rm.mu.Lock()
	x := rm.jitter
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	rm.jitter = x
	rm.mu.Unlock()
	return time.Duration(x % uint64(max))
}

// Retry re-arms a terminally quarantined remote: the failure count
// resets and the redial loop starts over (with a fresh reliable
// session — the quarantined one is dead). Reports whether a redial
// was started.
func (rm *Remote) Retry() bool {
	rm.mu.Lock()
	if rm.state != HealthQuarantined || rm.dialing || rm.stopping {
		rm.mu.Unlock()
		return false
	}
	rm.failures = 0
	rm.dialing = true
	rm.mu.Unlock()
	if !rm.spawn(rm.redialLoop) {
		rm.mu.Lock()
		rm.dialing = false
		rm.mu.Unlock()
		return false
	}
	return true
}

// shutdown stops the monitor and redial loops, kills the reliable
// session, closes the conn, and waits for every tracked goroutine —
// the prompt-teardown guarantee Peer.Close relies on even when a
// redial is in flight.
func (rm *Remote) shutdown() {
	rm.closeOnce.Do(func() { close(rm.closed) })
	rm.mu.Lock()
	rm.stopping = true
	c := rm.conn
	rel := rm.rel
	rm.conn = nil
	rm.mu.Unlock()
	if rel != nil {
		rel.shutdown(ErrClosed)
	}
	if c != nil {
		_ = c.Close()
	}
	rm.wg.Wait()
}

// Close stops managing the remote and tears its link down.
func (rm *Remote) Close() error {
	rm.shutdown()
	rm.peer.deregisterRemote(rm)
	return nil
}
