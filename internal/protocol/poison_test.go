package protocol

import (
	"testing"

	"plos/internal/transport"
)

// newLink makes the two ends of one test link. Every device, shard and
// aggregator link of the protocol tests is built through it, so
// TestPoisonedLinks can rerun them over links that turn a kept lent vector
// into NaN.
var newLink = transport.Pipe

// tcpLinks returns a newLink over loopback TCP. Links are dialled and
// accepted one at a time, so slot order is what it is over pipes.
func tcpLinks(t *testing.T) func() (transport.Conn, transport.Conn) {
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	return func() (transport.Conn, transport.Conn) {
		dialed, err := transport.Dial(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		accepted, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			_ = dialed.Close()
			_ = accepted.Close()
		})
		return accepted, dialed
	}
}

// TestPoisonedLinks holds the lending contract of transport.Conn (DESIGN.md
// §12) against every keeper in this package: with both ends of every link
// wrapped in transport.Poison — over pipes and over loopback TCP — the planes
// must reproduce the unwrapped run bit for bit, and the differential, hostile
// peer, kill/rejoin and session-resume tests must pass unchanged. A consumer
// that keeps a lent vector past the next Recv, or a transport that keeps a
// borrowed message past Send, reads NaN here instead of plausible numbers.
func TestPoisonedLinks(t *testing.T) {
	users, _ := makeUsers(31, 9)
	partition := [][]int{{0, 1, 2, 3, 4}, {5, 6, 7, 8}}
	refPlain := coordinatorPlane(t, users, nil)
	refShards := shardedPlane(t, users, partition, nil)

	poisoned := func(link func() (transport.Conn, transport.Conn)) func() (transport.Conn, transport.Conn) {
		return func() (transport.Conn, transport.Conn) {
			a, b := link()
			return transport.Poison(a), transport.Poison(b)
		}
	}
	// The pipe rows run in a bubble (bubble_test.go); a TCP read is not a
	// durable block, so the TCP rows run on the real clock.
	realClock := func(_ *testing.T, f func()) { f() }
	for _, mode := range []struct {
		name  string
		link  func(*testing.T) func() (transport.Conn, transport.Conn)
		clock func(*testing.T, func())
	}{
		{"pipe", func(*testing.T) func() (transport.Conn, transport.Conn) { return transport.Pipe }, bubble},
		{"tcp", tcpLinks, realClock},
	} {
		t.Run(mode.name, func(t *testing.T) {
			defer func(prev func() (transport.Conn, transport.Conn)) { newLink = prev }(newLink)
			newLink = poisoned(mode.link(t))

			mode.clock(t, func() {
				for _, c := range []struct {
					name     string
					ref, got planeRun
				}{
					{"plain server", refPlain, coordinatorPlane(t, users, nil)},
					{"two shards", refShards, shardedPlane(t, users, partition, nil)},
				} {
					same := vecIdentical(c.got.w0, c.ref.w0) && floatsIdentical(c.got.history, c.ref.history) &&
						c.got.rounds == c.ref.rounds && c.got.converged == c.ref.converged
					for u := range users {
						same = same && vecIdentical(c.got.serverW[u], c.ref.serverW[u]) &&
							vecIdentical(c.got.deviceW[u], c.ref.deviceW[u])
					}
					if !same {
						t.Errorf("%s: the run over poisoned links differs from the unwrapped run", c.name)
					}
				}
			})
			for _, sub := range []struct {
				name string
				run  func(*testing.T)
			}{
				{"TestPlaneDifferential", TestPlaneDifferential},
				{"TestHostilePeerTable", TestHostilePeerTable},
				{"TestHostileShardSumAbortsNamingShard", TestHostileShardSumAbortsNamingShard},
				{"TestShardedKillRestoreRejoins", TestShardedKillRestoreRejoins},
				{"TestShardedCheckpointHandoffBitIdentical", TestShardedCheckpointHandoffBitIdentical},
				{"TestClientResumeMidTraining", TestClientResumeMidTraining},
				{"TestAsyncClientResumeMidTraining", TestAsyncClientResumeMidTraining},
				{"TestCheckpointResumeBitIdentical", TestCheckpointResumeBitIdentical},
			} {
				t.Run(sub.name, func(t *testing.T) { mode.clock(t, func() { sub.run(t) }) })
			}
		})
	}
}
