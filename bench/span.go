package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"plos/internal/transport"
)

// Link sides. A device link has a server and a device end; an aggregator
// link has an agg and a shard end.
const (
	sideServer = "server"
	sideDevice = "device"
	sideAgg    = "agg"
	sideShard  = "shard"
)

// rawOp is one Send or Recv as the span wrapper saw it.
type rawOp struct {
	msg        transport.MsgType
	start, end time.Duration // since the recorder's epoch
	bytes      int64
}

// spanConn wraps one end of a link and records every Send and Recv crossing
// it. The Conn contract (one sender, one receiver) makes the two op slices
// and the two running byte totals single-writer, so recording takes no lock.
type spanConn struct {
	inner transport.Conn
	rec   *recorder
	link  int
	side  string
	// pipe marks an in-process link, which accounts Message.WireSize by
	// definition: the wrapper computes that itself instead of taking the
	// pipe's stats lock twice per microsecond-scale op. TCP links report
	// real encoded bytes, read as the growth of the connection's Stats.
	pipe           bool
	sent, received int64
	sends, recvs   []rawOp
}

func (c *spanConn) Send(m transport.Message) error {
	start := time.Since(c.rec.epoch)
	err := c.inner.Send(m)
	if err == nil {
		op := rawOp{msg: m.Type, start: start, end: time.Since(c.rec.epoch), bytes: int64(m.WireSize())}
		if !c.pipe {
			total := c.inner.Stats().BytesSent
			op.bytes, c.sent = total-c.sent, total
		}
		c.sends = append(c.sends, op)
	}
	return err
}

func (c *spanConn) Recv() (transport.Message, error) {
	start := time.Since(c.rec.epoch)
	m, err := c.inner.Recv()
	if err == nil {
		op := rawOp{msg: m.Type, start: start, end: time.Since(c.rec.epoch), bytes: int64(m.WireSize())}
		if !c.pipe {
			total := c.inner.Stats().BytesReceived
			op.bytes, c.received = total-c.received, total
		}
		c.recvs = append(c.recvs, op)
	}
	return m, err
}

func (c *spanConn) Close() error           { return c.inner.Close() }
func (c *spanConn) Stats() transport.Stats { return c.inner.Stats() }

// recorder owns the span wrappers of one traced training. epoch is the
// zero of its clock, set when the training starts. opsHint sizes each
// wrapper's op slices at set-up, so the timed training does not grow them.
type recorder struct {
	epoch   time.Time
	opsHint int
	conns   []*spanConn
}

// wrap returns c unchanged on a nil recorder (tracing off), so the untraced
// path carries no wrapper at all.
func (r *recorder) wrap(c transport.Conn, link int, side string, pipe bool) transport.Conn {
	if r == nil {
		return c
	}
	sc := &spanConn{inner: c, rec: r, link: link, side: side, pipe: pipe,
		sends: make([]rawOp, 0, r.opsHint), recvs: make([]rawOp, 0, r.opsHint)}
	r.conns = append(r.conns, sc)
	return sc
}

// span is one node of the derived tree. Times are nanoseconds since the
// recorder's epoch; Parent 0 marks the root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Link   int    `json:"link"`
	Side   string `json:"side,omitempty"`
	Msg    string `json:"msg,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// waitKinds are spans whose duration is time blocked on the peer, not work.
var waitKinds = map[string]bool{"device.wait": true, "server.recv": true,
	"shard.recv": true, "agg.recv": true, "gather": true, "shard.reduce": true}

// tree assembles the span tree of one traced training:
//
//	run → join
//	run → round[i] → gather → device.solve, device.wait, device.send, server.send, server.recv
//	run → round[i] → fold → shard.reduce, agg.fold, shard.send, shard.recv
//
// Lockstep links all exchange the same message sequence, so the i-th
// Send(params) on every device link belongs to round i. A round opens at the
// earliest of them and closes where the next opens (the first Send(done) for
// the last); its gather ends with the latest i-th Recv(update). Asynchronous
// runs have no round clock: their ops hang off run, and fold is the server's
// per-arrival Recv(update) end → next Send start on the same link.
// begin/end bound the run span.
func (r *recorder) tree(runID int, begin, end time.Duration, async bool) []span {
	t := &treeBuilder{run: runID}
	root := t.add(0, "run", -1, "", 0, begin, end, 0)

	var opens, gatherEnd, sumEnd, zStart []time.Duration
	doneAt, joinEnd := end, begin
	for _, c := range r.conns {
		switch c.side {
		case sideServer:
			if !async {
				opens = earliestAt(opens, c.sends, transport.MsgParams)
				gatherEnd = latestAt(gatherEnd, c.recvs, transport.MsgUpdate)
			}
			if done := firstOf(c.sends, transport.MsgDone); done != nil && done.start < doneAt {
				doneAt = done.start
			}
		case sideDevice:
			if first := firstOf(c.recvs, transport.MsgParams); first != nil && first.end > joinEnd {
				joinEnd = first.end
			}
		case sideAgg:
			sumEnd = latestAt(sumEnd, c.recvs, transport.MsgShardSum)
			zStart = earliestAt(zStart, c.sends, transport.MsgShardZ)
		}
	}

	join := t.add(root, "join", -1, "", 0, begin, joinEnd, 0)
	gathers := make([]int, len(opens))
	folds := make([]int, len(opens))
	for i, open := range opens {
		closeAt := doneAt
		if i+1 < len(opens) {
			closeAt = opens[i+1]
		}
		round := t.add(root, "round", -1, "", 0, open, closeAt, 0)
		gathers[i] = t.add(round, "gather", -1, "", 0, open, gatherEnd[i], 0)
		folds[i] = t.add(round, "fold", -1, "", 0, gatherEnd[i], closeAt, 0)
	}
	// Ops before the first round belong to join, ops past the last (and
	// every op of an async run) to the root.
	at := func(spans []int, k int) int {
		switch {
		case async || k >= len(spans):
			return root
		case k < 0:
			return join
		}
		return spans[k]
	}
	inGather := func(k int, _ rawOp) int { return at(gathers, k) }
	inFold := func(k int, _ rawOp) int { return at(folds, k) }
	inRoot := func(int, rawOp) int { return root }

	for _, c := range r.conns {
		switch c.side {
		case sideServer:
			t.attach(c, c.sends, "server.send", transport.MsgParams, func(k int, op rawOp) int {
				switch op.msg {
				case transport.MsgStartRound:
					return at(gathers, k+1) // rides ahead of its iteration's params
				case transport.MsgDone:
					return root
				}
				return at(gathers, k)
			})
			t.attach(c, c.recvs, "server.recv", transport.MsgUpdate, inGather)
			if async {
				// Server self time per arrival: the reply to an update is
				// the first send that starts after it arrived.
				for _, op := range c.recvs {
					if next := firstAfter(c.sends, op.end); op.msg == transport.MsgUpdate && next != nil {
						t.add(root, "fold", c.link, sideServer, 0, op.end, next.start, 0)
					}
				}
			}
		case sideDevice:
			t.attach(c, c.recvs, "device.wait", transport.MsgParams, inGather)
			t.attach(c, c.sends, "device.send", transport.MsgUpdate, inGather)
			k := -1
			for _, op := range c.recvs {
				if op.msg != transport.MsgParams {
					continue
				}
				k++
				if reply := firstAfter(c.sends, op.end); reply != nil {
					t.add(at(gathers, k), "device.solve", c.link, sideDevice, 0, op.end, reply.start, 0)
				}
			}
		case sideShard:
			t.attach(c, c.sends, "shard.send", transport.MsgShardSum, inFold)
			t.attach(c, c.recvs, "shard.recv", transport.MsgShardZ, inFold)
			k := -1
			for _, op := range c.sends {
				if op.msg != transport.MsgShardSum {
					continue
				}
				k++
				if z := firstAfter(c.recvs, op.end); z != nil {
					t.add(at(folds, k), "shard.reduce", c.link, sideShard, 0, op.start, z.end, 0)
				}
			}
		case sideAgg:
			t.attach(c, c.recvs, "agg.recv", 0, inRoot)
			t.attach(c, c.sends, "agg.send", 0, inRoot)
		}
	}
	// The aggregator's own time per iteration: last shard-sum in → first
	// shard-z out.
	for k := 0; k < len(sumEnd) && k < len(zStart); k++ {
		t.add(at(folds, k), "agg.fold", -1, sideAgg, 0, sumEnd[k], zStart[k], 0)
	}
	return t.spans
}

// earliestAt lowers acc[k] to the start of the k-th op of type msg in ops,
// extending acc as needed; latestAt raises acc[k] to its end. Folding every
// link's ops through them yields when each lockstep ordinal began and ended
// across the fleet.
func earliestAt(acc []time.Duration, ops []rawOp, msg transport.MsgType) []time.Duration {
	k := 0
	for _, op := range ops {
		if op.msg != msg {
			continue
		}
		if k == len(acc) {
			acc = append(acc, op.start)
		} else if op.start < acc[k] {
			acc[k] = op.start
		}
		k++
	}
	return acc
}

func latestAt(acc []time.Duration, ops []rawOp, msg transport.MsgType) []time.Duration {
	k := 0
	for _, op := range ops {
		if op.msg != msg {
			continue
		}
		if k == len(acc) {
			acc = append(acc, op.end)
		} else if op.end > acc[k] {
			acc[k] = op.end
		}
		k++
	}
	return acc
}

func firstOf(ops []rawOp, msg transport.MsgType) *rawOp {
	for i := range ops {
		if ops[i].msg == msg {
			return &ops[i]
		}
	}
	return nil
}

// firstAfter returns the first op starting at or after t (ops are in
// program order, hence ascending).
func firstAfter(ops []rawOp, t time.Duration) *rawOp {
	i := sort.Search(len(ops), func(i int) bool { return ops[i].start >= t })
	if i == len(ops) {
		return nil
	}
	return &ops[i]
}

type treeBuilder struct {
	run   int
	spans []span
}

func (t *treeBuilder) add(parent int, name string, link int, side string, msg transport.MsgType, start, end time.Duration, bytes int64) int {
	if end < start {
		end = start
	}
	id := len(t.spans) + 1
	s := span{ID: id, Parent: parent, Run: t.run, Name: name, Link: link, Side: side,
		Start: int64(start), End: int64(end), Bytes: bytes}
	if msg != 0 {
		s.Msg = msg.String()
	}
	t.spans = append(t.spans, s)
	return id
}

// attach adds every op of one direction of link c as a span called name. An
// op of type tick advances the lockstep ordinal k (from -1) before it is
// placed; parent picks the op's parent span from k.
func (t *treeBuilder) attach(c *spanConn, ops []rawOp, name string, tick transport.MsgType, parent func(k int, op rawOp) int) {
	k := -1
	for _, op := range ops {
		if op.msg == tick {
			k++
		}
		t.add(parent(k, op), name, c.link, c.side, op.msg, op.start, op.end, op.bytes)
	}
}

// interval is a half-open [start, end) stretch of the run clock.
type interval struct{ start, end int64 }

// selfTime is the part of parent not covered by any child: its duration
// minus the union of the child intervals clipped to it. Children may overlap
// each other and may stick out of the parent (a device's wait for the next
// round starts inside this one).
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	covered, reach := int64(0), parent.start
	for _, c := range clipped {
		if c.start > reach {
			reach = c.start
		}
		if c.end > reach {
			covered += c.end - reach
			reach = c.end
		}
	}
	return (parent.end - parent.start) - covered
}

// layerRow is one line of the per-layer table: every span of one name.
type layerRow struct {
	Name    string
	Busy    time.Duration // total duration of working spans
	Waiting time.Duration // total duration of spans blocked on a peer
	Self    time.Duration // duration not covered by child spans
	Count   int
}

// layerTable folds the tree into one row per span name, in first-seen order.
func layerTable(spans []span) []layerRow {
	children := make(map[int][]interval)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
	}
	index := map[string]int{}
	var rows []layerRow
	for _, s := range spans {
		i, ok := index[s.Name]
		if !ok {
			i = len(rows)
			index[s.Name] = i
			rows = append(rows, layerRow{Name: s.Name})
		}
		row := &rows[i]
		row.Count++
		if waitKinds[s.Name] {
			row.Waiting += s.dur()
		} else {
			row.Busy += s.dur()
		}
		row.Self += time.Duration(selfTime(interval{s.Start, s.End}, children[s.ID]))
	}
	return rows
}

// durationsMS collects the durations of every span called name, in ms.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

func printLayerTable(w io.Writer, rows []layerRow, trainS, overhead float64) {
	fmt.Fprintf(w, "  %-14s %12s %12s %12s %9s %8s\n", "layer", "busy_ms", "self_ms", "waiting_ms", "count", "share")
	for _, r := range rows {
		total := r.Busy + r.Waiting
		fmt.Fprintf(w, "  %-14s %12.3f %12.3f %12.3f %9d %8.3f\n", r.Name,
			ms(r.Busy), ms(r.Self), ms(r.Waiting), r.Count, total.Seconds()/trainS)
	}
	fmt.Fprintf(w, "  share = (busy+waiting) / train_s; parallel spans sum past 1.  trace.overhead_frac %.4f\n", overhead)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// writeSpans writes one JSON object per span.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}
