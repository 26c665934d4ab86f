// Package har simulates the UCI Human Activity Recognition dataset used in
// the paper's §VI-C — the data substitute documented in DESIGN.md §3 (the
// real corpus is not available offline). It reproduces the properties the
// experiments depend on:
//
//   - 30 users, 561-dimensional feature vectors;
//   - the sitting-vs-standing pair ("the least separable pair among the six
//     activities"): class prototypes live in a low-dimensional informative
//     subspace with moderate margin, the remaining dimensions are nuisance;
//   - ~50 samples per activity per user;
//   - per-user pattern shifts (offset + in-subspace rotation) that are
//     *smaller* than the body-sensor simulator's: waist-mounted smartphones
//     with fixed orientation embody fewer personal traits, which is why the
//     paper finds the All-vs-PLOS gap smaller on HAR than on body sensors.
package har

import (
	"fmt"
	"math"

	"plos/internal/mat"
	"plos/internal/parallel"
	"plos/internal/rng"
)

// Config tunes the simulator; the zero value matches the paper's setup.
type Config struct {
	// Users is the cohort size (default 30).
	Users int
	// PerClass is the number of samples per activity per user (default 50).
	PerClass int
	// Dim is the feature dimensionality (default 561).
	Dim int
	// Informative is the size of the class-discriminative subspace
	// (default 40).
	Informative int
	// Separation scales the class margin along the informative dimensions
	// (default 0.22, putting the Bayes accuracy near 0.92 — sitting vs
	// standing is "the least separable pair" and the paper's HAR
	// accuracies live in the 60–95% band, not at ceiling).
	Separation float64
	// UserShift scales per-user heterogeneity (default 0.25; smartphones
	// fixed at the waist embody fewer personal traits than the
	// freely-placed body sensor nodes).
	UserShift float64
	// Noise is the within-class standard deviation (default 1).
	Noise float64
	// Bias makes Generate reserve one more column after the Dim features and
	// set it to the constant 1 — the matrix svm.AugmentBias would return,
	// written once instead of generated and then copied. The features and
	// the random draws behind them are the same either way.
	Bias bool
}

func (c Config) withDefaults() Config {
	if c.Users <= 0 {
		c.Users = 30
	}
	if c.PerClass <= 0 {
		c.PerClass = 50
	}
	if c.Dim <= 0 {
		c.Dim = 561
	}
	if c.Informative <= 0 {
		c.Informative = 40
	}
	if c.Informative > c.Dim {
		c.Informative = c.Dim
	}
	if c.Separation <= 0 {
		c.Separation = 0.22
	}
	if c.UserShift <= 0 {
		c.UserShift = 0.25
	}
	if c.Noise <= 0 {
		c.Noise = 1
	}
	return c
}

// User is one simulated participant: rows of X are feature vectors, Truth
// holds +1 for standing and −1 for sitting, interleaved so any prefix is
// class-balanced.
type User struct {
	X     *mat.Matrix
	Truth []float64
}

// Dataset is the simulated cohort.
type Dataset struct {
	Users []User
}

// Generate simulates the cohort deterministically from g, spreading the
// users over GOMAXPROCS goroutines.
func Generate(cfg Config, g *rng.RNG) (*Dataset, error) {
	cfg = cfg.withDefaults()
	if cfg.Users <= 0 {
		return nil, fmt.Errorf("har: Generate: no users")
	}
	// Shared class prototypes: ±Separation along each informative axis,
	// mildly perturbed so axes are not identical.
	protoG := g.Split("prototype")
	proto := make(mat.Vector, cfg.Dim)
	for j := 0; j < cfg.Informative; j++ {
		proto[j] = cfg.Separation * (1 + 0.3*protoG.Norm())
	}

	// Every user draws from its own stream, so users are generated on any
	// goroutine in any order and each is written to its own slot: the cohort
	// is the same bits for any GOMAXPROCS. A block of users re-seeds one
	// stream per user.
	ds := &Dataset{Users: make([]User, cfg.Users)}
	parallel.Blocks(0, cfg.Users, func(lo, hi int) {
		userG := rng.New(0)
		for u := lo; u < hi; u++ {
			g.SplitNInto(userG, "har-user", u)
			ds.Users[u] = generateUser(cfg, proto, userG)
		}
	})
	return ds, nil
}

// MultiUser is one participant of the full multi-activity task: Truth holds
// class indices in [0, classes).
type MultiUser struct {
	X     *mat.Matrix
	Truth []int
}

// MultiDataset is a simulated multi-activity cohort.
type MultiDataset struct {
	Users   []MultiUser
	Classes int
}

// GenerateMulti simulates the full HAR task (default six activities:
// walking, walking upstairs, walking downstairs, sitting, standing, laying)
// rather than the paper's single binary pair. Each activity has its own
// prototype in the informative subspace; sitting (3) and standing (4) are
// placed closest together, preserving "the least separable pair". Samples
// cycle through the classes so any prefix is balanced.
func GenerateMulti(cfg Config, classes int, g *rng.RNG) (*MultiDataset, error) {
	cfg = cfg.withDefaults()
	if classes < 2 {
		return nil, fmt.Errorf("har: GenerateMulti: need at least two classes, got %d", classes)
	}
	// Class prototypes: random well-spread directions, except the
	// sitting/standing pair (indices 3 and 4 when present), which are a
	// tight ±Separation split of one shared direction.
	protoG := g.Split("multi-prototype")
	protos := make([]mat.Vector, classes)
	for c := range protos {
		p := make(mat.Vector, cfg.Dim)
		for j := 0; j < cfg.Informative; j++ {
			p[j] = protoG.Gauss(0, 1.2)
		}
		protos[c] = p
	}
	if classes > 4 {
		shared := make(mat.Vector, cfg.Dim)
		split := make(mat.Vector, cfg.Dim)
		for j := 0; j < cfg.Informative; j++ {
			shared[j] = protoG.Gauss(0, 1.2)
			split[j] = cfg.Separation * (1 + 0.3*protoG.Norm())
		}
		protos[3] = mat.AddVec(shared, split)
		protos[4] = mat.SubVec(shared, split)
	}

	// Users are independent streams, generated in parallel as in Generate.
	ds := &MultiDataset{Users: make([]MultiUser, cfg.Users), Classes: classes}
	parallel.Blocks(0, cfg.Users, func(lo, hi int) {
		userG := rng.New(0)
		for u := lo; u < hi; u++ {
			g.SplitNInto(userG, "har-multi-user", u)
			ds.Users[u] = generateMultiUser(cfg, protos, userG)
		}
	})
	return ds, nil
}

func generateMultiUser(cfg Config, protos []mat.Vector, g *rng.RNG) MultiUser {
	offset := make(mat.Vector, cfg.Informative)
	for j := range offset {
		offset[j] = g.Gauss(0, cfg.UserShift)
	}
	classes := len(protos)
	n := classes * cfg.PerClass
	x := mat.NewMatrix(n, cfg.Dim)
	truth := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % classes
		row := x.Row(i)
		for j := 0; j < cfg.Informative; j++ {
			row[j] = protos[cls][j] + offset[j] + g.Gauss(0, cfg.Noise)
		}
		for j := cfg.Informative; j < cfg.Dim; j++ {
			row[j] = g.Gauss(0, 1)
		}
		truth[i] = cls
	}
	return MultiUser{X: x, Truth: truth}
}

func generateUser(cfg Config, proto mat.Vector, g *rng.RNG) User {
	// Personal transform: an offset in the informative subspace plus a
	// rotation applied to consecutive coordinate pairs.
	offset := make(mat.Vector, cfg.Informative)
	for j := range offset {
		offset[j] = g.Gauss(0, cfg.UserShift)
	}
	theta := g.Gauss(0, cfg.UserShift*0.5)
	cosT, sinT := math.Cos(theta), math.Sin(theta)

	// Only the informative coordinates have a class mean; the nuisance
	// dimensions are pure noise.
	classMean := func(cls float64) mat.Vector {
		m := make(mat.Vector, cfg.Informative)
		for j := 0; j < cfg.Informative; j++ {
			m[j] = cls*proto[j] + offset[j]
		}
		// Rotate consecutive informative pairs by the personal angle.
		for j := 0; j+1 < cfg.Informative; j += 2 {
			a, b := m[j], m[j+1]
			m[j] = cosT*a - sinT*b
			m[j+1] = sinT*a + cosT*b
		}
		return m
	}
	means := map[float64]mat.Vector{1: classMean(1), -1: classMean(-1)}

	n := 2 * cfg.PerClass
	cols := cfg.Dim
	if cfg.Bias {
		cols++
	}
	x := mat.NewMatrix(n, cols)
	truth := make([]float64, n)
	for i := 0; i < n; i++ {
		cls := 1.0
		if i%2 == 1 {
			cls = -1
		}
		row := x.Row(i)
		m := means[cls]
		for j := 0; j < cfg.Informative; j++ {
			row[j] = m[j] + g.Gauss(0, cfg.Noise)
		}
		for j := cfg.Informative; j < cfg.Dim; j++ {
			row[j] = g.Gauss(0, 1) // nuisance dimensions
		}
		if cfg.Bias {
			row[cfg.Dim] = 1
		}
		truth[i] = cls
	}
	return User{X: x, Truth: truth}
}
