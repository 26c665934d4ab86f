package transport

import (
	"math"
	"time"
)

// Poison wraps inner so that breaking the Conn lending contract is loud
// instead of silently plausible. Recv hands out copies of the vectors in the
// wrapper's own storage and overwrites them with NaN at its next Recv: a
// consumer that kept one past its loan reads NaN, not the stale (or, by luck
// of the protocol, equal) numbers a real transport leaves there. Send sends a
// copy and overwrites it with NaN once the inner Send returned: a transport
// that kept the borrowed message delivers NaN. A test wrapper, like Chaos and
// FailAfter; results under it must equal the unwrapped run's.
func Poison(inner Conn) Conn { return &poisonConn{Conn: inner} }

type poisonConn struct {
	Conn
	lent, sent vecSlots // one receiver, one sender: no lock
}

func (s *vecSlots) fillNaN() {
	for _, v := range s {
		for i := range v {
			v[i] = math.NaN()
		}
	}
}

func (p *poisonConn) Send(m Message) error {
	p.sent.hold(&m)
	err := p.Conn.Send(m)
	p.sent.fillNaN()
	return err
}

func (p *poisonConn) Recv() (Message, error) {
	p.lent.fillNaN()
	m, err := p.Conn.Recv()
	if err == nil {
		p.lent.hold(&m)
	}
	return m, err
}

// SetOpTimeout forwards the per-op deadline to the wrapped connection.
func (p *poisonConn) SetOpTimeout(d time.Duration) { SetOpTimeout(p.Conn, d) }
