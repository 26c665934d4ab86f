// Package sensors simulates the paper's §VI-B body sensor network — the
// hardware substitute documented in DESIGN.md §3. The real study wore three
// TelosB nodes (waist, left shin, right shin), each with a triaxial
// accelerometer and a biaxial gyroscope, on 20 subjects performing "rest at
// standing" and "rest at sitting", with no instruction about exact node
// placement or orientation.
//
// The simulator reproduces the structure that drives the paper's results:
//
//   - the two postures project gravity differently onto each node's axes
//     (the class signal);
//   - every subject attaches the nodes with a personal random orientation
//     (the per-user pattern shift PLOS personalizes to — free placement is
//     why the body-sensor dataset shows more personal traits than HAR);
//   - physiological tremor, postural sway, and sensor noise ride on top.
//
// Signals are generated at a raw rate and pushed through the exact §VI-B
// pipeline in internal/features: downsample to 20 Hz, normalize, split into
// 3.2 s windows with 50% overlap, extract the 120-dimensional vectors.
package sensors

import (
	"fmt"
	"math"

	"plos/internal/features"
	"plos/internal/mat"
	"plos/internal/parallel"
	"plos/internal/rng"
)

// Activity labels. Standing maps to class +1, sitting to −1.
type Activity int

const (
	Standing Activity = iota + 1
	Sitting
)

// Label returns the ±1 class value of the activity.
func (a Activity) Label() float64 {
	if a == Standing {
		return 1
	}
	return -1
}

// NumNodes is the number of sensing nodes per subject.
const NumNodes = 3

// FeatureDim is the per-window feature dimensionality (3 nodes × 40).
const FeatureDim = NumNodes * features.PerNodeCount

// Config tunes the simulator. The zero value reproduces the paper's setup.
type Config struct {
	// Subjects is the cohort size (default 20).
	Subjects int
	// SegmentsPerActivity is the number of windows per activity per
	// subject (default 70, as produced by 5 minutes of recording).
	SegmentsPerActivity int
	// RawHz is the simulated sampling rate before downsampling
	// (default 100); TargetHz is the post-downsampling rate (default 20,
	// must divide RawHz).
	RawHz, TargetHz int
	// WindowSec is the sliding-window width in seconds (default 3.2)
	// with 50% overlap.
	WindowSec float64
	// PlacementStd is the per-user node-orientation variability in
	// radians (default 0.35): the "no instruction was given regarding the
	// exact placement and orientation" knob. Larger values make users
	// more heterogeneous.
	PlacementStd float64
	// FlipProb is the probability that a subject mounts a node upside
	// down (default 0.2) — the strongest personal trait free placement
	// produces, and the main reason one user's model transfers poorly to
	// another (paper §VI-B/Fig 3 discussion). Negative disables flips.
	FlipProb float64
	// NoiseStd is the white sensor noise level in g (default 0.05).
	NoiseStd float64
	// Ambiguity is the fraction of each activity's timeline spent in
	// postures that resemble the *other* class — slouched standing,
	// legs-extended sitting (default 0.18; negative disables). This is
	// what keeps real rest-posture data away from 100% accuracy: the
	// paper's per-user accuracies span ~70–97%, not 100%.
	Ambiguity float64
	// PostureWanderStd is the amplitude (radians) of the slow within-
	// activity posture drift — fidgeting, weight shifts (default 0.12).
	PostureWanderStd float64
}

func (c Config) withDefaults() Config {
	if c.Subjects <= 0 {
		c.Subjects = 20
	}
	if c.SegmentsPerActivity <= 0 {
		c.SegmentsPerActivity = 70
	}
	if c.RawHz <= 0 {
		c.RawHz = 100
	}
	if c.TargetHz <= 0 {
		c.TargetHz = 20
	}
	if c.WindowSec <= 0 {
		c.WindowSec = 3.2
	}
	if c.PlacementStd <= 0 {
		c.PlacementStd = 0.35
	}
	if c.FlipProb == 0 {
		c.FlipProb = 0.2
	} else if c.FlipProb < 0 {
		c.FlipProb = 0
	}
	if c.NoiseStd <= 0 {
		c.NoiseStd = 0.05
	}
	if c.Ambiguity == 0 {
		c.Ambiguity = 0.35
	} else if c.Ambiguity < 0 {
		c.Ambiguity = 0
	}
	if c.PostureWanderStd <= 0 {
		c.PostureWanderStd = 0.12
	}
	return c
}

// Subject is one simulated participant's extracted dataset.
type Subject struct {
	// X rows are window feature vectors (FeatureDim columns), with the
	// two activities interleaved so any prefix is class-balanced.
	X *mat.Matrix
	// Truth holds the ±1 activity label of each row.
	Truth []float64
}

// Dataset is the full simulated cohort.
type Dataset struct {
	Subjects []Subject
}

// base gravity directions per node and posture (unit vectors in the node's
// nominal frame). Standing keeps shins vertical; sitting tilts them and
// leans the waist — these are the class signatures free placement rotates.
var (
	standingDirs = [NumNodes]mat.Vector{
		{0.05, 0.00, 0.99}, // waist
		{0.00, 0.05, 1.00}, // left shin
		{0.03, 0.00, 1.00}, // right shin
	}
	sittingDirs = [NumNodes]mat.Vector{
		{0.20, 0.08, 0.97}, // waist barely changes when sitting upright
		{0.85, 0.05, 0.52}, // left shin angled forward
		{0.80, 0.12, 0.58}, // right shin angled forward
	}
)

// Generate simulates the cohort and runs the extraction pipeline. Every
// subject draws from its own stream, so the subjects are generated over
// GOMAXPROCS goroutines into their own slots: the cohort is the same bits for
// any GOMAXPROCS, and on failure the error is the lowest-numbered failing
// subject's.
func Generate(cfg Config, g *rng.RNG) (*Dataset, error) {
	cfg = cfg.withDefaults()
	if cfg.RawHz%cfg.TargetHz != 0 {
		return nil, fmt.Errorf("sensors: Generate: TargetHz %d must divide RawHz %d", cfg.TargetHz, cfg.RawHz)
	}
	// A window needs two samples: its 50% overlap strides by half a window.
	if width := int(cfg.WindowSec * float64(cfg.TargetHz)); width < 2 {
		return nil, fmt.Errorf("sensors: Generate: WindowSec %g at TargetHz %d is %d samples, want at least 2",
			cfg.WindowSec, cfg.TargetHz, width)
	}
	subjects, err := parallel.Map(0, cfg.Subjects, func(s int) (Subject, error) {
		subj, err := generateSubject(cfg, g.SplitN("subject", s))
		if err != nil {
			return Subject{}, fmt.Errorf("sensors: Generate subject %d: %w", s, err)
		}
		return subj, nil
	})
	if err != nil {
		return nil, err
	}
	return &Dataset{Subjects: subjects}, nil
}

// subjectTraits are the persistent personal characteristics.
type subjectTraits struct {
	// nodeRot rotates each node's gravity directions (free placement).
	axes   [NumNodes]mat.Vector
	angles [NumNodes]float64
	// tremor and sway parameters.
	tremorAmp, tremorHz float64
	swayAmp, swayHz     float64
	// sitSway is the subject's seated-sway factor. It overlaps the
	// standing factor (1.0) so that motion energy is NOT a reliable class
	// signal — otherwise unsupervised clustering separates the activities
	// by restlessness alone, which real rest-posture data does not allow.
	sitSway float64
	biases  [NumNodes][features.SignalsPerNode]float64
}

func sampleTraits(cfg Config, g *rng.RNG) subjectTraits {
	t := subjectTraits{
		tremorAmp: 0.10 + 0.20*g.Float64(),
		tremorHz:  6 + 5*g.Float64(),
		swayAmp:   0.05 + 0.12*g.Float64(),
		swayHz:    0.2 + 0.6*g.Float64(),
		sitSway:   0.6 + 0.5*g.Float64(),
	}
	for n := 0; n < NumNodes; n++ {
		t.axes[n] = g.UnitVector(3)
		t.angles[n] = g.Gauss(0, cfg.PlacementStd)
		if g.Bool(cfg.FlipProb) {
			t.angles[n] += math.Pi // node mounted upside down
		}
		for c := 0; c < features.SignalsPerNode; c++ {
			t.biases[n][c] = g.Gauss(0, 0.02)
		}
	}
	return t
}

// rotate3 applies Rodrigues' rotation of v around unit axis k by angle a.
func rotate3(v, k mat.Vector, a float64) mat.Vector {
	c, s := math.Cos(a), math.Sin(a)
	kxv := mat.Vector{
		k[1]*v[2] - k[2]*v[1],
		k[2]*v[0] - k[0]*v[2],
		k[0]*v[1] - k[1]*v[0],
	}
	kv := k.Dot(v)
	out := make(mat.Vector, 3)
	for i := 0; i < 3; i++ {
		out[i] = v[i]*c + kxv[i]*s + k[i]*kv*(1-c)
	}
	return out
}

func generateSubject(cfg Config, g *rng.RNG) (Subject, error) {
	traits := sampleTraits(cfg, g)
	factor := cfg.RawHz / cfg.TargetHz
	width := int(cfg.WindowSec * float64(cfg.TargetHz))
	stride := width / 2
	perActivity := (cfg.SegmentsPerActivity-1)*stride + width // target-rate samples
	rawPerActivity := perActivity * factor

	// Raw channels: [node][channel][t], both activities concatenated
	// (standing first) so normalization spans the full recording and the
	// posture offset survives within windows.
	raw := make([][][]float64, NumNodes)
	for n := range raw {
		raw[n] = make([][]float64, features.SignalsPerNode)
		for c := range raw[n] {
			raw[n][c] = make([]float64, 2*rawPerActivity)
		}
	}
	// Block schedule: posture is piecewise-stationary in blocks of one
	// window length; a block may be "ambiguous" — a posture variant that
	// leans toward the other class (slouched standing, legs-extended
	// sitting). All nodes share the schedule (it's one body).
	blockLen := width * factor
	numBlocks := (rawPerActivity + blockLen - 1) / blockLen
	for half, act := range []Activity{Standing, Sitting} {
		offset := half * rawPerActivity
		schedG := g.SplitN("schedule", half)
		blend := make([]float64, numBlocks) // 0 = pure class posture
		// vigor is the block's class-independent motion-energy multiplier
		// (restlessness): it dominates the variance of the energy/spread
		// features, which is exactly why unsupervised clustering on real
		// rest-posture data groups by restlessness, not by activity
		// (the paper's Single baseline stays low on unlabeled users).
		vigor := make([]float64, numBlocks)
		for bIdx := range blend {
			if schedG.Bool(cfg.Ambiguity) {
				// Mostly recoverable lean (blend < 0.5) with a tail that
				// crosses into the other class's geometry: a continuum
				// between the clusters that ruins unsupervised boundary
				// placement while a supervised boundary survives.
				blend[bIdx] = 0.15 + 0.5*schedG.Float64()
			}
			vigor[bIdx] = 0.3 + 2.7*schedG.Float64()
		}
		for n := 0; n < NumNodes; n++ {
			own, other := standingDirs[n], sittingDirs[n]
			swayScale := 1.0
			if act == Sitting {
				own, other = sittingDirs[n], standingDirs[n]
				swayScale = traits.sitSway
			}
			phase := g.Float64() * 2 * math.Pi
			wanderHz := 0.05 + 0.1*g.Float64()
			wanderAmp := g.Gauss(cfg.PostureWanderStd, cfg.PostureWanderStd/3)
			for i := 0; i < rawPerActivity; i++ {
				b := i / blockLen
				dir := mat.Axpy(blend[b], mat.SubVec(other, own), own)
				if norm := dir.Norm2(); norm > 0 {
					dir.Scale(1 / norm)
				}
				tSec := float64(i) / float64(cfg.RawHz)
				wander := wanderAmp * math.Sin(2*math.Pi*wanderHz*tSec+phase/3)
				dir = rotate3(dir, traits.axes[n], traits.angles[n]+wander)
				tremor := vigor[b] * traits.tremorAmp * math.Sin(2*math.Pi*traits.tremorHz*tSec+phase)
				sway := vigor[b] * swayScale * traits.swayAmp * math.Sin(2*math.Pi*traits.swayHz*tSec+phase/2)
				// Accelerometer: gravity projection + tremor + sway + noise.
				for c := 0; c < 3; c++ {
					v := dir[c] + tremor*0.3 + sway*float64(c%2) +
						traits.biases[n][c] + g.Gauss(0, cfg.NoiseStd)
					raw[n][c][offset+i] = v
				}
				// Gyroscope: sway angular rate + tremor leakage + noise.
				rate := 2 * math.Pi * traits.swayHz * vigor[b] * swayScale * traits.swayAmp *
					math.Cos(2*math.Pi*traits.swayHz*tSec+phase/2)
				for c := 3; c < features.SignalsPerNode; c++ {
					v := rate*float64(4-c) + tremor*0.1 +
						traits.biases[n][c] + g.Gauss(0, cfg.NoiseStd)
					raw[n][c][offset+i] = v
				}
			}
		}
	}

	// Pipeline: downsample → normalize over full recording → window per
	// activity half → extract features.
	down := make([][][]float64, NumNodes)
	for n := range raw {
		down[n] = make([][]float64, features.SignalsPerNode)
		for c := range raw[n] {
			d, err := features.Downsample(raw[n][c], factor)
			if err != nil {
				return Subject{}, err
			}
			down[n][c] = features.ZNormalize(d)
		}
	}
	wins, err := features.SlidingWindows(perActivity, width, stride)
	if err != nil {
		return Subject{}, err
	}
	if len(wins) < cfg.SegmentsPerActivity {
		return Subject{}, fmt.Errorf("sensors: got %d windows, want %d", len(wins), cfg.SegmentsPerActivity)
	}
	wins = wins[:cfg.SegmentsPerActivity]

	total := 2 * cfg.SegmentsPerActivity
	x := mat.NewMatrix(total, FeatureDim)
	truth := make([]float64, total)
	for wi, w := range wins {
		for half, act := range []Activity{Standing, Sitting} {
			row := 2*wi + half // interleave activities
			offset := half * perActivity
			at := 0
			for n := 0; n < NumNodes; n++ {
				sigs := make([][]float64, features.SignalsPerNode)
				for c := range sigs {
					sigs[c] = down[n][c][offset+w.Start : offset+w.End]
				}
				nf, err := features.NodeFeatures(sigs)
				if err != nil {
					return Subject{}, err
				}
				copy(x.Row(row)[at:], nf)
				at += len(nf)
			}
			truth[row] = act.Label()
		}
	}
	return Subject{X: x, Truth: truth}, nil
}
