package protocol

import (
	"testing"

	"plos/internal/core"
	"plos/internal/mat"
	"plos/internal/race"
	"plos/internal/rng"
	"plos/internal/shard"
	"plos/internal/transport"
)

// preparedState is a coordinator between gather and fold: users of dim-wide
// solutions in three reduce groups, one user dropped, one group all dropped.
func preparedState(g *rng.RNG, users, dim int) *serverState {
	us := make([]*serverUser, users)
	for t := range us {
		us[t] = &serverUser{lastW: g.NormVector(dim), lastV: g.NormVector(dim), lastXi: g.Float64()}
	}
	last := users - 1
	groups := [][]int{{}, {}, {last}}
	for t := 0; t < last; t++ {
		groups[t%2] = append(groups[t%2], t)
	}
	st := newServerState(ServerConfig{Core: core.Config{Lambda: 100}, ReduceGroups: groups}, us, dim, nil)
	for t := range us {
		st.us[t] = g.NormVector(dim)
	}
	us[3].dropped, us[last].dropped = true, true
	return st
}

// TestRoundRefillBitsAndAllocs: the refill of a barrier iteration
// (sumPartials, applyZ, objectivePartials on the state's own scratch)
// produces the partials and duals of the round that made fresh x_t vectors,
// group slices and sums every iteration — kept here as the reference — bit
// for bit, and allocates nothing from the second iteration on — and neither
// does ingest, which copies each reply's lent vectors into the slot's own.
// What a lockstep iteration still allocates server-side is the reducer's new
// z (and the goroutine of each exchange).
func TestRoundRefillBitsAndAllocs(t *testing.T) {
	const users, dim = 9, 562
	g := rng.New(17)
	st := preparedState(g, users, dim)
	refUs := make(map[int]mat.Vector)
	for slot, u := range st.us {
		refUs[slot] = u.Clone()
	}
	for iter := 0; iter < 3; iter++ {
		// New solutions arrive, as ingest would store them.
		for _, u := range st.users {
			u.lastW, u.lastV = g.NormVector(dim), g.NormVector(dim)
		}
		var gxs, gus [][]mat.Vector
		wantWorkers := 0
		for _, slots := range st.groups {
			var xs, us []mat.Vector
			for _, slot := range slots {
				if u := st.users[slot]; !u.dropped {
					xs = append(xs, mat.SubVec(u.lastW, u.lastV))
					us = append(us, refUs[slot])
				}
			}
			if len(xs) > 0 {
				gxs, gus = append(gxs, xs), append(gus, us)
				wantWorkers += len(xs)
			}
		}

		sums, workers := st.sumPartials()
		if workers != wantWorkers || len(sums) != len(gxs) {
			t.Fatalf("iteration %d: %d partials over %d workers, want %d over %d", iter, len(sums), workers, len(gxs), wantWorkers)
		}
		for k := range gxs {
			want := shard.SumXU(gxs[k], gus[k], dim)
			for j := range want {
				if sums[k][j] != want[j] {
					t.Fatalf("iteration %d: partial %d slot %d: %x, reference %x", iter, k, j, sums[k][j], want[j])
				}
			}
		}
		z := g.NormVector(dim)
		primals := st.applyZ(z)
		for k := range gxs {
			var want float64
			for i, x := range gxs[k] {
				du := mat.SubVec(x, z)
				want += du.SquaredNorm()
				gus[k][i].Add(du)
			}
			if primals[k] != want {
				t.Fatalf("iteration %d: primal partial %d: %x, reference %x", iter, k, primals[k], want)
			}
		}
		for slot, want := range refUs {
			for j := range want {
				if st.us[slot][j] != want[j] {
					t.Fatalf("iteration %d: dual %d slot %d diverged from the reference", iter, slot, j)
				}
			}
		}
		if objs := st.objectivePartials(); len(objs) != len(gxs) {
			t.Fatalf("iteration %d: %d objective partials, want %d", iter, len(objs), len(gxs))
		}
	}
	if race.Enabled {
		return // the race detector allocates
	}
	z := g.NormVector(dim)
	var replies []exchangeReply
	for slot, u := range st.users {
		if !u.dropped {
			replies = append(replies, exchangeReply{user: slot, want: transport.MsgUpdate, msg: transport.Message{
				Type: transport.MsgUpdate, W: g.NormVector(dim), V: g.NormVector(dim), Xi: 0.5}})
		}
	}
	if got := testing.AllocsPerRun(20, func() {
		for _, r := range replies {
			if !st.ingest(r) {
				t.Fatal("reply refused")
			}
		}
		st.sumPartials()
		st.applyZ(z)
		st.objectivePartials()
	}); got != 0 {
		t.Errorf("ingest and refill of one iteration: %v allocs, want 0", got)
	}
	// The slot holds a copy: the connection rewrites what it lent at its next
	// Recv, long before stale reuse reads the solution again.
	r := replies[0]
	kept := st.users[r.user].lastW.Clone()
	r.msg.W[0]++
	if !sameBits(st.users[r.user].lastW, kept) || sameBits(kept, r.msg.W) {
		t.Error("ingest kept the reply's lent vector instead of copying it")
	}
}
