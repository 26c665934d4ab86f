package core

import (
	"runtime"
	"testing"
	"time"

	"plos/internal/mat"
)

// TrainDistributed returns what it returned before Consensus.Step ran the
// round engine's partial arithmetic and admm.Run read the clock: one hash
// over the bits of W0, every W[t] and the objective history, per seed and
// compression scheme, for the sequential and the pooled x-update alike. The
// cohort's 12×120 users run their cut rounds in the row space, whose sums
// are not the feature space's per-row forms, so the values were recorded
// once more when the row space arrived. They were recorded again when the
// budget projection's threshold filter replaced the sorted scan: the device
// duals' budget binds, and the filter sums θ's terms in input order rather
// than descending, which moves low bits (internal/qp, DESIGN.md §11.3).
func TestTrainDistributedBitsRecorded(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("bits recorded on amd64; other targets may fuse multiply-adds")
	}
	for _, c := range []struct {
		seed int64
		spec string
		want uint64
	}{
		{1, "", 0x989aabd462f709f8},
		{1, "q8,topk:0.75", 0xff80a2dd3a10071c},
		{2, "", 0xe518bec171f33fd3},
		{2, "q8,topk:0.75", 0x5e96d375279981a2},
	} {
		users := fig5Users(t, c.seed, 5, 6, 120)
		cfg, dcfg := simTrainCfg(c.seed)
		if c.spec != "" {
			dcfg.Compress = simCompress(t, c.spec)
		}
		for _, workers := range []int{1, 0} {
			dcfg.Workers = workers
			m, info, err := TrainDistributed(users, cfg, dcfg)
			if err != nil {
				t.Fatalf("seed %d %q workers %d: %v", c.seed, c.spec, workers, err)
			}
			bits := append(mat.Vector(nil), m.W0...)
			for _, w := range m.W {
				bits = append(bits, w...)
			}
			bits = append(bits, info.ObjectiveHistory...)
			if got := bitsHash(bits); got != c.want {
				t.Errorf("seed %d %q workers %d: model and objective bits hash %#x, recorded %#x",
					c.seed, c.spec, workers, got, c.want)
			}
		}
	}
}

// The three durations TrainInfo carries are parts of the call that produced
// them: the slowest solves are among all solves (and are all of them for one
// user), solves and folds fit inside the wall time when solves run one at a
// time, the slowest solves and folds fit inside it however they run, and a
// trainer without ADMM reports none.
func TestRunTimingsAccountForWall(t *testing.T) {
	users := fig5Users(t, 3, 5, 6, 120)
	cfg, dcfg := simTrainCfg(3)
	for _, c := range []struct {
		users   []UserData
		workers int
	}{{users, 1}, {users, 0}, {users[:1], 1}} {
		dcfg.Workers = c.workers
		start := time.Now()
		_, info, err := TrainDistributed(c.users, cfg, dcfg)
		wall := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if info.SolveTime <= 0 || info.FoldTime <= 0 {
			t.Errorf("T=%d workers %d: solves %v, folds %v, want both positive",
				len(c.users), c.workers, info.SolveTime, info.FoldTime)
		}
		if info.SlowestSolveTime > info.SolveTime {
			t.Errorf("T=%d workers %d: slowest solves %v exceed all solves %v",
				len(c.users), c.workers, info.SlowestSolveTime, info.SolveTime)
		}
		if len(c.users) == 1 && info.SlowestSolveTime != info.SolveTime {
			t.Errorf("T=1: slowest solves %v, all solves %v, want equal", info.SlowestSolveTime, info.SolveTime)
		}
		if c.workers == 1 && info.SolveTime+info.FoldTime > wall {
			t.Errorf("T=%d sequential: solves %v + folds %v exceed the call's %v",
				len(c.users), info.SolveTime, info.FoldTime, wall)
		}
		if info.SlowestSolveTime+info.FoldTime > wall {
			t.Errorf("T=%d workers %d: slowest solves %v + folds %v exceed the call's %v",
				len(c.users), c.workers, info.SlowestSolveTime, info.FoldTime, wall)
		}
	}
	_, info, err := TrainCentralized(users, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if info.SolveTime != 0 || info.SlowestSolveTime != 0 || info.FoldTime != 0 {
		t.Errorf("TrainCentralized reports ADMM time: %v / %v / %v",
			info.SolveTime, info.SlowestSolveTime, info.FoldTime)
	}
}
