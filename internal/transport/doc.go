// Package transport provides the message-passing substrate for distributed
// PLOS: a Message vocabulary shared by the server and the user devices, a
// Conn abstraction with per-connection traffic accounting (paper Fig. 13
// reports per-user message overhead in KB), an in-process pipe
// implementation for simulation-scale experiments, and a TCP implementation
// speaking a canonical length-prefixed binary codec (codec.go) for real
// deployments (cmd/plos-server, cmd/plos-client).
//
// A Link runs one request/reply exchange at a time over a Conn without
// blocking its caller: natively on a bare pipe end, through an actor
// goroutine on any other Conn (exchange.go).
//
// Only model parameters ever appear in a Message — raw user data has no
// representation in the protocol, which is the privacy property the paper's
// distributed design is built around.
//
// Observe wraps any Conn so that every Send/Recv also feeds the
// transport_* counters of an obs.Registry; byte figures come from the connection's own Stats deltas,
// so the observed numbers equal the Fig. 11–13 traffic accounting exactly.
package transport
