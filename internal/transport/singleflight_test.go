package transport

import (
	"sync"
	"testing"

	"pti/internal/fixtures"
	"pti/internal/registry"
	"pti/internal/typedesc"
)

// TestSingleFlightRecheckAfterClaim forces the interleaving a flash
// crowd can produce on a loaded machine: a follower misses, and before
// it claims the key the leader fetches, learns and releases. The
// follower then wins a fresh claim, and must find what the leader
// learned instead of asking the sender a second time. Run for the
// description fetch and for the code exchange.
func TestSingleFlightRecheckAfterClaim(t *testing.T) {
	cases := []struct {
		name     string
		exchange func(p *Peer, c *Conn, d *typedesc.TypeDescription) error
		requests func(StatsSnapshot) uint64
	}{
		{"description", func(p *Peer, c *Conn, d *typedesc.TypeDescription) error {
			_, err := p.ensureDescription(c, d.Ref())
			return err
		}, func(s StatsSnapshot) uint64 { return s.TypeInfoRequests }},
		{"code", func(p *Peer, c *Conn, d *typedesc.TypeDescription) error {
			p.downloadCodeOnce(c, d.Ref(), d)
			return nil
		}, func(s StatsSnapshot) uint64 { return s.CodeRequests }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			regPub := registry.New()
			entry, err := regPub.Register(fixtures.PersonB{})
			if err != nil {
				t.Fatal(err)
			}
			pub := NewPeer(regPub, WithName("pub"))
			sub := NewPeer(registry.New(), WithName("sub"))
			defer pub.Close()
			defer sub.Close()
			_, link := Connect(pub, sub)

			// The first caller to miss is the follower: it parks
			// between its miss and its claim until the leader is done.
			missed := make(chan struct{})
			leaderDone := make(chan struct{})
			var first sync.Once
			sub.afterMiss = func(flightKey) {
				follower := false
				first.Do(func() { follower = true })
				if follower {
					close(missed)
					<-leaderDone
				}
			}

			followerErr := make(chan error, 1)
			go func() { followerErr <- tc.exchange(sub, link, entry.Description) }()
			<-missed
			if err := tc.exchange(sub, link, entry.Description); err != nil {
				t.Errorf("leader: %v", err)
			}
			close(leaderDone)
			if err := <-followerErr; err != nil {
				t.Errorf("follower: %v", err)
			}

			if n := tc.requests(sub.Stats().Snapshot()); n != 1 {
				t.Errorf("%s requests = %d, want exactly 1", tc.name, n)
			}
		})
	}
}
