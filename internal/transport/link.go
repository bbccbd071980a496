package transport

// Link is one bidirectional frame path between two peers: the one-way
// surface Peer.SendObject and the reliable layer write through. *Conn
// — a link over a real byte stream (TCP, an in-memory pipe, or a
// fabric endpoint) — is the canonical implementation; the simulation
// fabric hands out *Conns over virtual endpoints, so SendObject and
// the receive side run unmodified over either a real network or a
// simulated one. Request/reply exchanges (description and code
// fetches, lookups) run on the *Conn itself.
type Link interface {
	// Send writes a one-way message.
	Send(m *Message) error
	// Close tears the link down, unblocking pending requests.
	Close() error
}

var _ Link = (*Conn)(nil)

// Send writes a one-way message over the connection. When a reliable
// sender is attached (WithReliableLinks, NewReliableLink), every
// message except raw link control (msgClass.raw) rides the
// exactly-once in-order channel.
func (c *Conn) Send(m *Message) error {
	if r := c.rel.Load(); r != nil && !m.Type.class().raw {
		return r.Send(m)
	}
	return c.send(m)
}
