package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// tcpConn adapts a net.Conn to the Conn interface with the canonical binary
// codec (see codec.go) behind a 4-byte little-endian length prefix, and real
// on-the-wire byte accounting (prefix included).
//
// Frames are built in and decoded from buffers the connection owns. They are
// made by the first Send and the first Recv, grow to the frames the
// connection actually carries, and never leave it: Send copies the message
// into sendBuf, and a decoded Message holds copies of everything it took
// from recvBuf; its dense vectors are the connection's too (vecs), lent to
// the caller until the next Recv.
type tcpConn struct {
	counter
	nc net.Conn

	sendMu  sync.Mutex
	sendBuf []byte // under sendMu: length prefix + payload of the frame in flight
	recvMu  sync.Mutex
	br      *bufio.Reader // under recvMu: read-ahead over nc
	recvBuf []byte        // under recvMu: payload of the frame being decoded
	vecs    vecSlots      // under recvMu: the vectors of the last decoded Message

	closeOnce sync.Once
	closeErr  error
	// opTimeout, when positive, bounds each Send/Recv via net deadlines.
	// A TCP deadline can expire mid-frame, leaving the stream torn, so
	// timeouts here are fatal (wrapped ErrTimeout, NOT transient): the
	// caller must reconnect rather than retry on the same conn.
	opTimeout atomic.Int64
}

// SetOpTimeout bounds every subsequent Send/Recv to d (d <= 0 clears it).
func (t *tcpConn) SetOpTimeout(d time.Duration) { t.opTimeout.Store(int64(d)) }

// mapIOErr normalizes the error of a raw read/write: peer hangups become
// ErrClosed, expired deadlines become ErrTimeout, anything else passes
// through.
func mapIOErr(op string, err error) error {
	if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return fmt.Errorf("transport: %s: %w", op, ErrClosed)
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return fmt.Errorf("transport: %s: %w", op, ErrTimeout)
	}
	return fmt.Errorf("transport: %s: %w", op, err)
}

// NewTCPConn wraps an established net.Conn. The caller keeps ownership of
// dialing/accepting; Dial and the Listener helpers below cover the common
// cases.
func NewTCPConn(nc net.Conn) Conn {
	return &tcpConn{nc: nc}
}

// Dial connects to a PLOS server at addr ("host:port").
func Dial(addr string) (Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: Dial %s: %w", addr, err)
	}
	return NewTCPConn(nc), nil
}

const (
	// readAhead sizes the buffered reader: above every frame in the
	// benchmark ledger (an update at dim 562 is 9 087 bytes), so a frame
	// that has arrived is taken off the socket in one read, prefix included.
	readAhead = 16 << 10
	// growStep is the smallest step the payload buffer grows by while a
	// frame longer than it arrives.
	growStep = 64 << 10
	// maxRetained caps the buffers a connection keeps between frames; a
	// larger frame is built in or read into a buffer dropped after use.
	maxRetained = 1 << 20
)

func (t *tcpConn) Send(m Message) error {
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	frame := AppendMessage(append(t.sendBuf[:0], 0, 0, 0, 0), m)
	if cap(frame) <= maxRetained {
		t.sendBuf = frame
	}
	n := len(frame) - 4
	if n > maxFrame {
		return fmt.Errorf("transport: Send: frame of %d bytes exceeds limit %d", n, maxFrame)
	}
	binary.LittleEndian.PutUint32(frame, uint32(n))
	if d := time.Duration(t.opTimeout.Load()); d > 0 {
		_ = t.nc.SetWriteDeadline(time.Now().Add(d))
	} else {
		_ = t.nc.SetWriteDeadline(time.Time{})
	}
	if _, err := t.nc.Write(frame); err != nil {
		return mapIOErr("Send", err)
	}
	t.addSent(len(frame))
	return nil
}

func (t *tcpConn) Recv() (Message, error) {
	t.recvMu.Lock()
	defer t.recvMu.Unlock()
	if d := time.Duration(t.opTimeout.Load()); d > 0 {
		_ = t.nc.SetReadDeadline(time.Now().Add(d))
	} else {
		_ = t.nc.SetReadDeadline(time.Time{})
	}
	if t.br == nil {
		t.br = bufio.NewReaderSize(t.nc, readAhead)
	}
	hdr, err := t.br.Peek(4)
	if err != nil {
		// EOF cleanly between frames is the peer hanging up; inside a
		// header it is a torn frame.
		return Message{}, mapIOErr("Recv", err)
	}
	n := binary.LittleEndian.Uint32(hdr)
	_, _ = t.br.Discard(4) // peeked above, so it cannot fail
	if n > maxFrame {
		return Message{}, fmt.Errorf("transport: Recv: %w: frame of %d bytes exceeds limit %d", ErrCodec, n, maxFrame)
	}
	payload, err := t.readPayload(int(n))
	if err != nil {
		return Message{}, mapIOErr("Recv: torn frame", err)
	}
	m, err := decodeMessage(payload, &t.vecs)
	if err != nil {
		return Message{}, fmt.Errorf("transport: Recv: %w", err)
	}
	t.addReceived(4 + len(payload))
	return m, nil
}

// readPayload reads the n announced payload bytes into the connection's
// payload buffer. The prefix is only a claim: the buffer grows as bytes
// arrive — to n at once when n is within growStep, else by no more than what
// already arrived — so a peer that announces maxFrame and stalls has cost
// about twice what it sent, not 64 MiB.
func (t *tcpConn) readPayload(n int) ([]byte, error) {
	buf := t.recvBuf[:0]
	for len(buf) < n {
		have := len(buf)
		want := min(n, have+max(have, growStep))
		buf = slices.Grow(buf, want-have)[:want]
		if _, err := io.ReadFull(t.br, buf[have:]); err != nil {
			return nil, err
		}
	}
	if cap(buf) <= maxRetained {
		t.recvBuf = buf
	}
	return buf, nil
}

func (t *tcpConn) Close() error {
	t.closeOnce.Do(func() { t.closeErr = t.nc.Close() })
	return t.closeErr
}

// Listener accepts PLOS protocol connections.
type Listener struct {
	l net.Listener
}

// Listen starts a TCP listener on addr (":0" picks an ephemeral port).
func Listen(addr string) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: Listen %s: %w", addr, err)
	}
	return &Listener{l: l}, nil
}

// Addr returns the bound address (useful with ":0").
func (l *Listener) Addr() string { return l.l.Addr().String() }

// Accept waits for the next client connection.
func (l *Listener) Accept() (Conn, error) {
	nc, err := l.l.Accept()
	if err != nil {
		return nil, fmt.Errorf("transport: Accept: %w", err)
	}
	return NewTCPConn(nc), nil
}

// AcceptN collects exactly n client connections.
func (l *Listener) AcceptN(n int) ([]Conn, error) {
	conns := make([]Conn, 0, n)
	for len(conns) < n {
		c, err := l.Accept()
		if err != nil {
			for _, open := range conns {
				_ = open.Close()
			}
			return nil, err
		}
		conns = append(conns, c)
	}
	return conns, nil
}

// Close stops the listener.
func (l *Listener) Close() error { return l.l.Close() }
