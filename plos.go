// Package plos is a from-scratch Go implementation of PLOS, the
// Personalized Learning framework for mObile Sensing applications
// (Jiang et al., ICDCS 2018).
//
// PLOS jointly trains one classifier per user from a population in which
// many users label little or none of their data: a shared global
// hyperplane captures what all users have in common, per-user offsets
// capture how each user differs, and unlabeled samples contribute through
// maximum-margin clustering terms. Training is available in two modes:
//
//   - Train: the centralized solver (CCCP + cutting planes + a QP dual) —
//     all data in one process.
//   - TrainDistributed: the same objective solved by consensus ADMM with
//     per-user local solvers — in-process here, or across real devices via
//     Serve/Join, where raw data never leaves a device and only model
//     parameters cross the wire.
//
// The minimal flow:
//
//	users := []plos.User{
//	    {Features: laura, Labels: []float64{+1, -1, +1}}, // labels cover the first rows
//	    {Features: noah},                                 // no labels at all
//	}
//	model, err := plos.Train(users, plos.WithLambda(100))
//	...
//	class := model.Predict(1, sample) // Noah's personalized classifier
//
// See DESIGN.md for the algorithm and EXPERIMENTS.md for the reproduction
// of the paper's evaluation.
package plos

import (
	"fmt"
	"time"

	"plos/internal/compress"
	"plos/internal/core"
	"plos/internal/mat"
	"plos/internal/svm"
)

// User is one participant's training data. Features rows are samples;
// Labels, when present, label the FIRST len(Labels) rows with ±1 (the
// paper's l_t prefix convention). A user with no labels still contributes
// the structure of their unlabeled data and receives a personalized
// classifier.
type User struct {
	Features [][]float64
	Labels   []float64
}

// options aggregates the functional options.
type options struct {
	core  core.Config
	dist  core.DistConfig
	async core.AsyncConfig
	bias  bool
	ft    ftOptions
	// compressSpec is the WithCompression argument, parsed by Serve/Join
	// (an Option cannot return an error); comp is the parsed result.
	compressSpec string
	comp         compress.Config
	// wireAsync selects the asynchronous DJAM protocol mode on Serve/Join.
	wireAsync bool
}

// ftOptions collects the fault-tolerance knobs of Serve and Join (see
// docs/FAULT_TOLERANCE.md). All zero values disable the corresponding
// mechanism.
type ftOptions struct {
	opTimeout       time.Duration
	retries         int
	roundTimeout    time.Duration
	quorum          float64
	shardQuorum     int
	maxStale        int
	resume          bool
	maxRedials      int
	session         int64
	onSession       func(int64)
	checkpointPath  string
	checkpointEvery int
}

func defaultOptions() options {
	return options{bias: true}
}

// Option customizes training.
type Option func(*options)

// WithLambda sets the personalization strength λ: large values tie every
// user to the global model, small values let users follow their own data.
// The paper finds a broad optimum near λ = 100 (Fig. 7).
func WithLambda(lambda float64) Option {
	return func(o *options) { o.core.Lambda = lambda }
}

// WithLossWeights sets Cl and Cu, the loss weights of labeled and
// unlabeled samples (defaults 1 and 0.2). Pass cu = 0 to ignore unlabeled
// data entirely.
func WithLossWeights(cl, cu float64) Option {
	return func(o *options) {
		o.core.Cl = cl
		if cu == 0 {
			o.core.Cu = -1 // the core sentinel for "disabled"
		} else {
			o.core.Cu = cu
		}
	}
}

// WithEpsilon sets the cutting-plane tolerance ε (default 1e-3).
func WithEpsilon(eps float64) Option {
	return func(o *options) { o.core.Epsilon = eps }
}

// WithSeed fixes all internal randomness for reproducible training.
func WithSeed(seed int64) Option {
	return func(o *options) { o.core.Seed = seed }
}

// WithoutBias disables the automatic constant-1 feature: hyperplanes then
// pass through the origin (the paper's footnote-1 convention in reverse).
func WithoutBias() Option {
	return func(o *options) { o.bias = false }
}

// WithBalanceGuard enables the class-balance heuristic that keeps
// zero-label users' max-margin clustering from collapsing to one side.
func WithBalanceGuard() Option {
	return func(o *options) { o.core.BalanceGuard = true }
}

// WithWarmWorkingSets keeps cutting-plane working sets across CCCP rounds
// (faster, slightly less faithful to the paper's Algorithm 1).
func WithWarmWorkingSets() Option {
	return func(o *options) { o.core.WarmWorkingSets = true }
}

// WithADMM sets the distributed solver's penalty ρ and absolute stopping
// tolerance ε_abs (defaults 1 and 1e-3, the paper's §VI-E settings). It
// has no effect on centralized training.
func WithADMM(rho, epsAbs float64) Option {
	return func(o *options) {
		o.dist.Rho = rho
		o.dist.EpsAbs = epsAbs
	}
}

// WithWorkers bounds the goroutine fan-out of every trainer: n == 1 is
// strictly sequential, n <= 0 restores the default of runtime.GOMAXPROCS(0).
// The trained model is bit-identical for any value — parallel sections write
// only disjoint index-addressed slots and every floating-point reduction
// folds in index order (see internal/parallel).
func WithWorkers(n int) Option {
	return func(o *options) {
		o.core.Workers = n
		o.dist.Workers = n
	}
}

// WithAsyncBarrier sets the partial-barrier size of TrainAsync: the number
// of fresh device updates that triggers a consensus refresh (default T/4;
// T reproduces a synchronous schedule). It has no effect on the other
// trainers.
func WithAsyncBarrier(updates int) Option {
	return func(o *options) { o.async.Barrier = updates }
}

// WithAsync switches Serve and Join to the fully asynchronous DJAM protocol
// mode: devices push an update whenever a local solve finishes, the
// coordinator folds each arrival into the consensus immediately under a
// staleness-weighted rule (weight 1/(1+min(s, WithMaxStale)) for an arrival
// s fleet rounds old), and there is no global ADMM round clock — per-device
// consensus snapshots replace the lockstep broadcast. A straggler then
// delays only its own contribution, not the fleet. The mode is negotiated
// in the hello exchange; a Join with WithAsync fails fast against a
// synchronous coordinator. Objectives converge to within a few percent of
// the synchronous mode's but are not bit-identical to it (docs/ASYNC.md
// discusses the convergence caveat). No effect on the in-process trainers
// (see TrainAsync) or on ServeAggregator's sharded plane, which is lockstep
// by construction.
func WithAsync() Option {
	return func(o *options) { o.wireAsync = true }
}

// WithOpTimeout bounds every single network send and receive on Serve/Join
// connections. A blocked peer then surfaces as a timeout error (handled by
// the straggler policy) instead of hanging the round forever. 0 disables.
func WithOpTimeout(d time.Duration) Option {
	return func(o *options) { o.ft.opTimeout = d }
}

// WithRetries layers seeded retry/backoff over Serve/Join connections:
// transient transport failures (timeouts on message-preserving transports,
// injected chaos faults) are retried up to n attempts per operation with
// capped exponential backoff and deterministic jitter. Duplicate deliveries
// are suppressed by sequence numbers. n <= 1 disables the layer.
func WithRetries(n int) Option {
	return func(o *options) { o.ft.retries = n }
}

// WithRoundTimeout sets the coordinator's per-ADMM-iteration deadline:
// devices that miss it are carried on their last reported solution for up
// to WithMaxStale rounds, then dropped. 0 (the default) waits forever.
func WithRoundTimeout(d time.Duration) Option {
	return func(o *options) { o.ft.roundTimeout = d }
}

// WithQuorum aborts training when fewer than ceil(frac·T) of the original
// T devices remain active (ErrTooFewActive from the protocol layer).
func WithQuorum(frac float64) Option {
	return func(o *options) { o.ft.quorum = frac }
}

// WithQuorum's device-tier rule lifted to shards: WithShardQuorum sets the
// minimum number of shards that must be represented in every ServeAggregator
// reduce — by a fresh partial or a stale carry within WithMaxStale rounds.
// Below it the run aborts with an error naming the first dead shard. n <= 0
// (the default) requires every shard (strict lockstep). It has no effect
// outside ServeAggregator.
func WithShardQuorum(n int) Option {
	return func(o *options) { o.ft.shardQuorum = n }
}

// WithMaxStale sets how many consecutive rounds a straggler's last local
// solution may be reused before the device is dropped (default 3). On
// ServeAggregator the same knob bounds how long a detached shard's last
// partial sums keep being folded while it restarts (docs/SHARDING.md).
func WithMaxStale(k int) Option {
	return func(o *options) { o.ft.maxStale = k }
}

// WithSessionResume enables session resume. On Serve, the coordinator
// issues session tokens, keeps accepting connections during training, and
// re-attaches devices that redial with their token. On Join, a failed
// connection is redialed up to maxRedials times with seeded backoff,
// resuming via the token. maxRedials only matters for Join.
func WithSessionResume(maxRedials int) Option {
	return func(o *options) {
		o.ft.resume = true
		o.ft.maxRedials = maxRedials
	}
}

// WithSessionToken presents an existing session token on Join's first
// hello — used by a restarted device process to reclaim its slot (pair with
// a coordinator restored from a checkpoint).
func WithSessionToken(token int64) Option {
	return func(o *options) { o.ft.session = token }
}

// WithSessionNotify registers a callback invoked whenever the coordinator
// issues or changes this device's session token — persist it so a crashed
// device can resume with WithSessionToken.
func WithSessionNotify(f func(token int64)) Option {
	return func(o *options) { o.ft.onSession = f }
}

// WithCompression enables codec-v4 parameter-payload compression on
// Serve/Join connections. The spec composes comma- (or plus-) separated
// terms: "q8"/"q16" (linear quantization with error feedback), "topk:F"
// (keep the top fraction F of coordinates per frame, delta-coded indices),
// and "delta" (code against the peer's last reconstructed round). "" or
// "off" disables. Both ends negotiate in the hello exchange and fall back
// to the intersection of their specs — against a peer without compression
// the wire stays bit-identical to codec v3. A malformed spec surfaces as
// an error from Serve/Join. See docs/WIRE_COMPRESSION.md.
func WithCompression(spec string) Option {
	return func(o *options) { o.compressSpec = spec }
}

// WithCheckpoint makes Serve snapshot its trainer state to path atomically
// after every `every`-th CCCP round (every <= 0 means every round). If the
// file already exists when Serve starts, training resumes from it: devices
// must reconnect with their session tokens (WithSessionToken) and the run
// continues from the recorded round.
func WithCheckpoint(path string, every int) Option {
	return func(o *options) {
		o.ft.checkpointPath = path
		o.ft.checkpointEvery = every
	}
}

// Model is a trained PLOS model.
type Model struct {
	model *core.Model
	info  core.TrainInfo
	bias  bool
}

// ErrNoUsers is returned when Train is called with an empty population.
var ErrNoUsers = core.ErrNoUsers

func toUserData(users []User, bias bool) ([]core.UserData, error) {
	if len(users) == 0 {
		return nil, ErrNoUsers
	}
	out := make([]core.UserData, len(users))
	for t, u := range users {
		if len(u.Features) == 0 {
			return nil, fmt.Errorf("plos: user %d: %w", t, core.ErrEmptyUser)
		}
		x := mat.FromRows(u.Features)
		if bias {
			x = svm.AugmentBias(x)
		}
		out[t] = core.UserData{X: x, Y: append([]float64(nil), u.Labels...)}
	}
	return out, nil
}

// Train fits the centralized PLOS model (paper Algorithm 1).
func Train(users []User, opts ...Option) (*Model, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	data, err := toUserData(users, o.bias)
	if err != nil {
		return nil, err
	}
	m, info, err := core.TrainCentralized(data, o.core)
	if err != nil {
		return nil, fmt.Errorf("plos: Train: %w", err)
	}
	return &Model{model: m, info: info, bias: o.bias}, nil
}

// TrainDistributed fits the same objective with the ADMM-based distributed
// solver (paper Algorithm 2), running every user's device logic in this
// process. For training across real machines see Serve and Join. With
// WithCompression it runs the encoder/decoder pairs and the byte accounting
// of a compressed Serve/Join session; the model is close to that session's,
// not equal to it, because the two start their ADMM differently (see
// docs/WIRE_COMPRESSION.md, "In-process simulation").
func TrainDistributed(users []User, opts ...Option) (*Model, error) {
	o, err := wireOptions(opts)
	if err != nil {
		return nil, fmt.Errorf("plos: TrainDistributed: %w", err)
	}
	// In-process there is no wire: the trainer simulates the codec-v4
	// roundtrip itself instead of a connection wrapper doing it.
	o.dist.Compress = o.comp
	data, err := toUserData(users, o.bias)
	if err != nil {
		return nil, err
	}
	m, info, err := core.TrainDistributed(data, o.core, o.dist)
	if err != nil {
		return nil, fmt.Errorf("plos: TrainDistributed: %w", err)
	}
	return &Model{model: m, info: info, bias: o.bias}, nil
}

// TrainAsync fits the objective with the asynchronous distributed solver:
// devices never wait for each other; the consensus refreshes at a partial
// barrier (the paper's §VII future-work scenario, where some users may
// delay their responses arbitrarily long). Accuracy matches the
// synchronous trainers to within solver tolerance.
func TrainAsync(users []User, opts ...Option) (*Model, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	data, err := toUserData(users, o.bias)
	if err != nil {
		return nil, err
	}
	m, info, err := core.TrainAsync(data, o.core, o.async)
	if err != nil {
		return nil, fmt.Errorf("plos: TrainAsync: %w", err)
	}
	return &Model{model: m, info: info, bias: o.bias}, nil
}

// NumUsers returns the number of personalized classifiers in the model.
func (m *Model) NumUsers() int { return m.model.NumUsers() }

// Predict classifies x with user t's personalized hyperplane, returning
// +1 or −1.
func (m *Model) Predict(t int, x []float64) float64 {
	return m.model.PredictUser(t, m.vec(x))
}

// Score returns user t's signed margin on x (distance-scaled confidence).
func (m *Model) Score(t int, x []float64) float64 {
	return m.model.ScoreUser(t, m.vec(x))
}

// PredictGlobal classifies x with the shared hyperplane — the model to
// apply to a brand-new user with no training presence (cold start).
func (m *Model) PredictGlobal(x []float64) float64 {
	return m.model.PredictGlobal(m.vec(x))
}

// Global returns a copy of the shared hyperplane w0 (including the bias
// weight as the last entry when bias is enabled).
func (m *Model) Global() []float64 {
	return append([]float64(nil), m.model.W0...)
}

// Personalized returns a copy of user t's hyperplane.
func (m *Model) Personalized(t int) []float64 {
	return append([]float64(nil), m.model.W[t]...)
}

// Stats reports solver diagnostics from training.
type Stats struct {
	CCCPIterations int
	CCCPConverged  bool
	Objective      float64
	Constraints    int
	// CutRounds is the total number of cutting-plane rounds and
	// QPIterations the cumulative inner QP iterations (centralized solver).
	CutRounds    int
	QPIterations int
	// ADMMIterations counts consensus rounds; the residuals are those of
	// the final round (paper Eq. 24), zero for centralized training.
	ADMMIterations     int
	ADMMPrimalResidual float64
	ADMMDualResidual   float64
	// ObjectiveHistory is the objective after each CCCP iteration.
	ObjectiveHistory []float64
	// CommRawBytes and CommCompBytes account the parameter payloads that
	// crossed the simulated device boundary when TrainDistributed ran with
	// WithCompression: dense-equivalent bytes and codec-v4 encoded bytes.
	// CompressionEFNorm is the L2 norm of the error-feedback residuals
	// left in the quantizers at the end of training. All three are zero
	// when compression is off.
	CommRawBytes      int64
	CommCompBytes     int64
	CompressionEFNorm float64
}

// Stats returns the training diagnostics. Slice fields are copies — mutating
// them does not affect the model.
func (m *Model) Stats() Stats {
	return Stats{
		CCCPIterations:     m.info.CCCPIterations,
		CCCPConverged:      m.info.CCCPConverged,
		Objective:          m.info.Objective,
		Constraints:        m.info.Constraints,
		CutRounds:          m.info.CutRounds,
		QPIterations:       m.info.QPIterations,
		ADMMIterations:     m.info.ADMMIterations,
		ADMMPrimalResidual: m.info.ADMMPrimal,
		ADMMDualResidual:   m.info.ADMMDual,
		ObjectiveHistory:   append([]float64(nil), m.info.ObjectiveHistory...),
		CommRawBytes:       m.info.CommRawBytes,
		CommCompBytes:      m.info.CommCompBytes,
		CompressionEFNorm:  m.info.CompressEFNorm,
	}
}

func (m *Model) vec(x []float64) mat.Vector {
	if m.bias {
		return svm.AugmentBiasVec(mat.Vector(x))
	}
	return mat.Vector(x)
}
