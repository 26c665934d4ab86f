package transport

import "plos/internal/obs"

// Observe wraps c so every Send/Recv feeds the registry's transport
// counters (messages and bytes per direction). Byte counts are taken as
// deltas of the underlying connection's Stats, so TCP connections report
// real encoded bytes and in-process pipes report WireSize — the same numbers
// Stats() already exposes. user names the device the connection belongs to
// (-1 for the client side or an unidentified peer); the counters are
// fleet-wide, so it selects nothing yet. A nil registry or nil conn returns
// c unchanged.
//
// The wrapper relies on the Conn contract (one sender, one receiver): the
// before/after Stats reads around a Send see no concurrent Send, so the
// per-direction delta is exact.
func Observe(c Conn, r *obs.Registry, user int) Conn {
	if c == nil || r == nil {
		return c
	}
	return &observedConn{Conn: c, net: r.NetMetrics()}
}

type observedConn struct {
	Conn
	net *obs.NetMetrics
}

func (o *observedConn) Send(m Message) error {
	before := o.Conn.Stats().BytesSent
	err := o.Conn.Send(m)
	if err != nil {
		return err
	}
	bytes := o.Conn.Stats().BytesSent - before
	o.net.MsgsSent.Inc()
	o.net.BytesSent.Add(bytes)
	return nil
}

func (o *observedConn) Recv() (Message, error) {
	before := o.Conn.Stats().BytesReceived
	m, err := o.Conn.Recv()
	if err != nil {
		return m, err
	}
	bytes := o.Conn.Stats().BytesReceived - before
	o.net.MsgsRecv.Inc()
	o.net.BytesRecv.Add(bytes)
	return m, nil
}
