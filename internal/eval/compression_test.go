package eval

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"plos/internal/core"
)

func TestCompressionSweepSmall(t *testing.T) {
	pts, err := CompressionSweep(CompressionOptions{
		CohortOptions: CohortOptions{Trials: 1, Seed: 3, Lambda: 50},
		Users:         4, PerClass: 5, Dim: 32, Providers: 2,
		Schemes: []string{"q8"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points, want dense + q8", len(pts))
	}
	d, q := pts[0], pts[1]
	if d.Scheme != "dense" || d.RawBytes != 0 || d.CompBytes != 0 || d.Ratio != 1 || d.EFNorm != 0 {
		t.Errorf("dense point carries compression stats: %+v", d)
	}
	if q.Scheme != "q8" || q.RawBytes == 0 || q.CompBytes == 0 || q.Ratio <= 1 {
		t.Errorf("q8 point has no savings: %+v", q)
	}
	for _, p := range pts {
		if p.Accuracy < 0.5 || p.Accuracy > 1 {
			t.Errorf("%s: accuracy %v out of range", p.Scheme, p.Accuracy)
		}
	}
	if q.ObjGapRel < 0 {
		t.Errorf("q8: negative objective gap %v", q.ObjGapRel)
	}
}

func TestCompressionSweepBadScheme(t *testing.T) {
	_, err := CompressionSweep(CompressionOptions{
		CohortOptions: CohortOptions{Trials: 1, Seed: 1},
		Users:         2, PerClass: 4, Dim: 8,
		Schemes: []string{"zstd"},
	})
	if err == nil {
		t.Fatal("unknown scheme should error")
	}
}

// cohortBitsHash folds everything HARCohort returns — shapes, feature bits,
// label prefixes, truths — into one FNV-1a hash.
func cohortBitsHash(users []core.UserData, truths [][]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	floats := func(v []float64) {
		word(uint64(len(v)))
		for _, x := range v {
			word(math.Float64bits(x))
		}
	}
	for t, u := range users {
		word(uint64(u.X.Rows))
		word(uint64(u.X.Cols))
		floats(u.X.Data)
		floats(u.Y)
		floats(truths[t])
	}
	return h.Sum64()
}

// The cohort every wire benchmark trains on is, bit for bit, the one built
// when the HAR generator's matrices were copied through svm.AugmentBias:
// hashes recorded at that commit, at the benchmark's shape and a small one.
func TestHARCohortBitsRecorded(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("bits recorded on amd64")
	}
	for _, c := range []struct {
		opts CompressionOptions
		want uint64
	}{
		{CompressionOptions{CohortOptions: CohortOptions{Seed: 7},
			Users: 32, PerClass: 6, Dim: 561, Providers: 16, Rate: 0.25}, 0xcdf54f6852ad95a1},
		{CompressionOptions{CohortOptions: CohortOptions{Seed: 11},
			Users: 4, PerClass: 5, Dim: 32, Providers: 2}, 0xbc454ce2d8b5f3d4},
	} {
		users, truths, err := HARCohort(c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := cohortBitsHash(users, truths); got != c.want {
			t.Errorf("seed %d: cohort bits hash %#x, recorded %#x", c.opts.Seed, got, c.want)
		}
	}
}

// BenchmarkHARCohort builds the cohort a bench workload trains on —
// har.Generate, then Assemble — at dist-inproc's shape (20 users of 100 rows
// × 562, 10 providers at 25 %) and shard-plane's (2 000 users of 4 rows × 32,
// 1 000 providers at 50 %): the whole of those workloads' set-up.
func BenchmarkHARCohort(b *testing.B) {
	for _, c := range []struct {
		name string
		opts CompressionOptions
	}{
		{"dist-inproc", CompressionOptions{CohortOptions: CohortOptions{Seed: 7},
			Users: 20, PerClass: 50, Dim: 561, Providers: 10, Rate: 0.25}},
		{"shard-plane", CompressionOptions{CohortOptions: CohortOptions{Seed: 7},
			Users: 2000, PerClass: 2, Dim: 31, Providers: 1000, Rate: 0.5}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := HARCohort(c.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
