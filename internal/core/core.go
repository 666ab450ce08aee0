// Package core assembles the paper's photomosaic pipeline: histogram-match
// the input to the target (§II), divide both into S tiles (Step 1), build
// the S×S tile-error matrix (Step 2), rearrange tiles by exact matching or
// local search (Step 3), and assemble the mosaic.
//
// It is the engine behind the public mosaic package; the experiment harness
// also drives it directly so every table and figure flows through one code
// path.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/assign"
	"repro/internal/cuda"
	"repro/internal/edgecolor"
	"repro/internal/imgutil"
	"repro/internal/localsearch"
	"repro/internal/metric"
	"repro/internal/perm"
	"repro/internal/retry"
	"repro/internal/trace"
)

// ErrOptions reports an invalid pipeline configuration.
var ErrOptions = errors.New("core: invalid options")

// Algorithm selects how Step 3 rearranges the tiles.
type Algorithm string

// The rearrangement algorithms of the paper plus the baselines used by the
// evaluation harness.
const (
	// Optimization is the exact method of §III: minimum-weight perfect
	// bipartite matching over the tile-error matrix.
	Optimization Algorithm = "optimization"
	// Approximation is the serial local search of §IV-A (Algorithm 1).
	Approximation Algorithm = "approximation"
	// ApproximationDirty is Algorithm 1 with dirty-pair tracking (and, via
	// Options.Search.Candidates, optional candidate-list warm sweeps): it
	// reaches the same swap-local fixed points while re-testing only pairs
	// whose endpoints moved — the delta-driven Step 3.
	ApproximationDirty Algorithm = "approximation-dirty"
	// ParallelApproximation is the edge-coloring-scheduled local search of
	// §IV-B (Algorithm 2) executed on the device.
	ParallelApproximation Algorithm = "approximation-parallel"
	// GreedyBaseline assigns tiles greedily by ascending error; not from the
	// paper, used to calibrate how much the real algorithms buy.
	GreedyBaseline Algorithm = "greedy"
	// IdentityBaseline performs no rearrangement at all (the histogram-
	// matched input as-is) — the quality floor.
	IdentityBaseline Algorithm = "identity"
	// Annealing is the simulated-annealing extension (DESIGN.md): random
	// swaps with Metropolis acceptance, then a final Algorithm-1 polish.
	// Tuned by Options.Anneal.
	Annealing Algorithm = "annealing"
)

// Algorithms lists the selectable algorithms in stable order.
func Algorithms() []Algorithm {
	return []Algorithm{Optimization, Approximation, ApproximationDirty, ParallelApproximation, GreedyBaseline, IdentityBaseline, Annealing}
}

// ParseAlgorithm resolves a name.
func ParseAlgorithm(name string) (Algorithm, error) {
	for _, a := range Algorithms() {
		if string(a) == name {
			return a, nil
		}
	}
	return "", fmt.Errorf("core: unknown algorithm %q: %w", name, ErrOptions)
}

// Options configures Generate. The zero value is not runnable: one of
// TilesPerSide or TileSize must be set. Everything else defaults to the
// paper's configuration (L1 metric, histogram matching on, serial
// approximation, JV for the optimization algorithm).
type Options struct {
	// TilesPerSide divides the images into TilesPerSide² tiles (the paper's
	// "S = 32×32" notation sets TilesPerSide = 32). Mutually exclusive with
	// TileSize.
	TilesPerSide int
	// TileSize divides the images into tiles of TileSize×TileSize pixels
	// (the paper's M). Mutually exclusive with TilesPerSide.
	TileSize int
	// Algorithm picks the Step-3 rearrangement; default Approximation.
	Algorithm Algorithm
	// Solver picks the exact matcher for Optimization; default JV.
	Solver assign.Algorithm
	// Metric picks the per-pixel error of Eq. (1); default L1 (the paper's).
	Metric metric.Metric
	// NoHistogramMatch disables the §II preprocessing that reshapes the
	// input's intensity distribution to the target's.
	NoHistogramMatch bool
	// Device supplies the virtual accelerator. nil leaves every stage on
	// the CPU (the paper's "CPU" columns: the cache-blocked host loop builds
	// the Step-2 matrix); non-nil moves the Step-2 matrix (the §V kernel)
	// and, for ParallelApproximation, the Step-3 swaps onto the device. Both
	// targets build the identical matrix.
	Device *cuda.Device
	// Coloring optionally supplies a precomputed, verified edge coloring of
	// K_S for ParallelApproximation; the paper precomputes it per S and
	// amortises it across images. nil builds one on the fly.
	Coloring *edgecolor.Coloring
	// Start optionally overrides the identity start of the local search.
	Start perm.Perm
	// Search tunes the local search (pass caps); zero value = paper.
	Search localsearch.Options
	// StoreCandidates, when set, derives ApproximationDirty's candidate
	// warm-sweep lists from the tile stores' thumbnail feature vectors
	// (localsearch.StoreCandidates) instead of top-K matrix columns. K is
	// Search.Candidates when positive, 8 otherwise. Only GenerateContext and
	// PrepareContext/FinishContext honour it — Rearrange has no stores.
	StoreCandidates bool
	// Anneal tunes the Annealing algorithm; zero value selects instance-
	// derived defaults (see localsearch.AnnealOptions).
	Anneal localsearch.AnnealOptions
	// ProxyResolution, when positive, builds the Step-2 matrix from tiles
	// box-downsampled to ProxyResolution² descriptors instead of full
	// resolution — the related-work acceleration documented in DESIGN.md.
	// Must divide the tile side M. Result.TotalError is still evaluated
	// exactly. Mutually exclusive with AllowOrientations.
	ProxyResolution int
	// Trace optionally receives span and counter events as the pipeline
	// runs (stage spans, local-search counters, device launch counters) —
	// see internal/trace for the built-in collectors. Result.Stats is
	// populated whether or not a collector is supplied.
	Trace trace.Collector
	// Resilience, when non-nil, routes the device-backed stages (the Step-2
	// matrix build and the Step-3 parallel sweeps) through fault-aware
	// launches with retry and host fallback; see the Resilience type. nil
	// keeps the original panic-on-misuse launch path with no retry
	// machinery — the happy path is unchanged. Only the plain grayscale
	// pipeline honours it; the oriented and proxy Step-2 builders ignore it.
	Resilience *Resilience
	// Anytime turns a deadline into a quality budget instead of a failure
	// mode: when the budget expires mid-Step-3 the pipeline stops the search
	// at a safe point and returns the best assignment found so far with
	// Result.Partial set — every intermediate permutation of the paper's
	// local search is a valid mosaic — instead of a context error. Stages
	// that cannot be partial (preprocessing, the cost matrix, assembly)
	// always run to completion; refinement that no longer fits the remaining
	// budget is shrunk or skipped (see SplitBudget). With an ample budget
	// the result is bit-identical to a run without Anytime.
	Anytime bool
	// Deadline is the anytime completion target (a soft deadline: the run
	// degrades as it approaches rather than failing at it). Zero with
	// Anytime set falls back to ctx's deadline, if any; with neither, the
	// run is unbounded and Anytime only changes how a cancelled ctx is
	// reported by Step 3. Serving callers pass the request deadline here
	// and keep ctx for hard cancellation (client gone, shutdown).
	Deadline time.Time
	// AllowOrientations extends the search space beyond the paper: each
	// placed tile may additionally use any of its eight dihedral
	// orientations (4 rotations × optional mirror). Step 2 scores all eight
	// per pair (~8× cost) and keeps the best, so every Step-3 algorithm
	// works unchanged on the minimised matrix; the resulting error is never
	// worse than the upright pipeline's. Grayscale only.
	AllowOrientations bool
}

// Resilience configures fault-tolerant execution of the device-backed
// pipeline stages. Each kernel launch (the Step-2 matrix build; each
// color-class sweep of Algorithm 2) is retried per Retry; when retries are
// exhausted — or immediately on cuda.ErrDeviceLost — the stage degrades to
// the bit-identical host equivalent (metric.BuildStoreBlocked; a serial sweep of
// the class's pairs), recording trace.SpanDegraded and
// trace.CounterDegradedRuns, unless DisableFallback is set, in which case
// the run fails with the launch error.
type Resilience struct {
	// Retry is the per-launch retry schedule (zero value = retry defaults:
	// 3 attempts, exponential backoff with jitter).
	Retry retry.Policy
	// DisableFallback fails the run instead of degrading to the host.
	DisableFallback bool
}

// cpuFallbackAllowed reports whether the options permit running device
// algorithms entirely on the host: Resilience set with fallback enabled.
// This is how a serving layer with every device quarantined still satisfies
// approximation-parallel requests — the host sweeps are bit-identical.
func (o *Options) cpuFallbackAllowed() bool {
	return o.Resilience != nil && !o.Resilience.DisableFallback
}

// Timing breaks the pipeline down the way the paper's tables do.
type Timing struct {
	Preprocess time.Duration // histogram matching (outside the paper's timings)
	CostMatrix time.Duration // Step 2 (Table II)
	Rearrange  time.Duration // Step 3 (Table III)
	// Assign is the LAP solve inside Rearrange when Algorithm ==
	// Optimization (zero otherwise) — a subset of Rearrange, not an
	// additional stage, so Total() is unchanged. Rearrange − Assign is the
	// Step-3 time outside the solver.
	Assign   time.Duration
	Assemble time.Duration // writing the output image
}

// Total returns the Step-2 + Step-3 time, the quantity of Table IV.
func (t Timing) Total() time.Duration { return t.CostMatrix + t.Rearrange }

// Result is the output of Generate.
type Result struct {
	// Mosaic is the rearranged image R.
	Mosaic *imgutil.Gray
	// Assignment maps target position v to the input tile placed there.
	Assignment perm.Perm
	// TotalError is Eq. (2) evaluated for Assignment.
	TotalError int64
	// Input is the preprocessed (histogram-matched) input actually tiled;
	// equal to the original input when preprocessing is disabled.
	Input *imgutil.Gray
	// SearchStats holds pass/swap counts for the approximation algorithms.
	SearchStats localsearch.Stats
	// Orientations records, when Options.AllowOrientations was set, the
	// orientation applied to the tile at each target position; nil otherwise.
	Orientations []imgutil.Orientation
	// Timing records per-stage wall time.
	Timing Timing
	// Stats is the aggregated trace of this run: per-stage span totals plus
	// the sweep/swap/kernel counters, mirroring what a Trace collector saw.
	Stats trace.Stats
	// Partial reports an anytime run that stopped before convergence: the
	// Assignment is valid and TotalError exact, but more budget would have
	// refined it further. Always false without Options.Anytime.
	Partial bool
	// AssignInfo is the quality certificate of Step 3's matcher when an
	// early-exit certified solver ran (auction-device, sinkhorn): its Gap
	// bounds the distance to the exact optimum, so a Partial result still
	// carries a certified/observed quality gap. nil for the other
	// algorithms.
	AssignInfo *assign.Info
	// BudgetRemaining reports, for anytime runs with a deadline, the
	// nanoseconds of budget left at stage entry (keys "search", "assemble";
	// negative once overdrawn) — the per-stage budget-remaining gauges feed
	// from it. nil otherwise.
	BudgetRemaining map[string]int64
}

// checkGeometry rejects images whose declared dimensions do not describe
// their pixel buffer, so no later stage indexes or allocates from
// inconsistent geometry.
func checkGeometry(img *imgutil.Gray, role string) error {
	if img == nil {
		return fmt.Errorf("core: nil %s image: %w", role, ErrOptions)
	}
	if img.W <= 0 || img.H <= 0 || len(img.Pix) != img.W*img.H {
		return fmt.Errorf("core: %s image %dx%d with %d pixels: %w", role, img.W, img.H, len(img.Pix), ErrOptions)
	}
	return nil
}

// validate normalises opts against the image geometry, returning the tile
// side M.
func (o *Options) validate(input, target *imgutil.Gray) (int, error) {
	if err := checkGeometry(input, "input"); err != nil {
		return 0, err
	}
	if err := checkGeometry(target, "target"); err != nil {
		return 0, err
	}
	if input.W != input.H {
		return 0, fmt.Errorf("core: input image %dx%d is not square: %w", input.W, input.H, ErrOptions)
	}
	if target.W != target.H {
		return 0, fmt.Errorf("core: target image %dx%d is not square: %w", target.W, target.H, ErrOptions)
	}
	if input.W != target.W {
		return 0, fmt.Errorf("core: input %dx%d vs target %dx%d: %w", input.W, input.H, target.W, target.H, ErrOptions)
	}
	var m int
	switch {
	case o.TilesPerSide > 0 && o.TileSize > 0:
		return 0, fmt.Errorf("core: TilesPerSide and TileSize are mutually exclusive: %w", ErrOptions)
	case o.TilesPerSide > 0:
		if input.W%o.TilesPerSide != 0 {
			return 0, fmt.Errorf("core: image side %d not divisible by %d tiles: %w", input.W, o.TilesPerSide, ErrOptions)
		}
		m = input.W / o.TilesPerSide
	case o.TileSize > 0:
		m = o.TileSize
		if input.W%m != 0 {
			return 0, fmt.Errorf("core: image side %d not divisible by tile size %d: %w", input.W, m, ErrOptions)
		}
	default:
		return 0, fmt.Errorf("core: one of TilesPerSide or TileSize is required: %w", ErrOptions)
	}
	if o.Algorithm == "" {
		o.Algorithm = Approximation
	}
	if _, err := ParseAlgorithm(string(o.Algorithm)); err != nil {
		return 0, err
	}
	if o.Solver == "" {
		o.Solver = assign.AlgoJV
	}
	if _, ok := assign.Solvers()[o.Solver]; !ok {
		return 0, fmt.Errorf("core: unknown solver %q: %w", o.Solver, ErrOptions)
	}
	if !o.Metric.Valid() {
		return 0, fmt.Errorf("core: invalid metric %v: %w", o.Metric, ErrOptions)
	}
	if o.Algorithm == ParallelApproximation && o.Device == nil && !o.cpuFallbackAllowed() {
		return 0, fmt.Errorf("core: %s requires a Device: %w", ParallelApproximation, ErrOptions)
	}
	if o.ProxyResolution > 0 {
		if o.AllowOrientations {
			return 0, fmt.Errorf("core: ProxyResolution and AllowOrientations are mutually exclusive: %w", ErrOptions)
		}
		if o.ProxyResolution > m || m%o.ProxyResolution != 0 {
			return 0, fmt.Errorf("core: ProxyResolution %d must divide tile side %d: %w", o.ProxyResolution, m, ErrOptions)
		}
	} else if o.ProxyResolution < 0 {
		return 0, fmt.Errorf("core: negative ProxyResolution: %w", ErrOptions)
	}
	return m, nil
}

// Generate runs the full pipeline on grayscale images.
func Generate(input, target *imgutil.Gray, opts Options) (*Result, error) {
	return GenerateContext(context.Background(), input, target, opts)
}

// ctxErr returns ctx's error if it is already done, nil otherwise.
func ctxErr(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// deviceDelta charges a trace collector with the kernel launches/blocks a
// device executed since the snapshot m0. No-op for a nil device.
func deviceDelta(tr trace.Collector, dev *cuda.Device, m0 cuda.Metrics) {
	if dev == nil {
		return
	}
	d := dev.Metrics().Sub(m0)
	trace.Count(tr, trace.CounterKernelLaunches, d.Launches)
	trace.Count(tr, trace.CounterKernelBlocks, d.Blocks)
}

// GenerateContext is Generate with cancellation and tracing: ctx is checked
// before every pipeline stage and, inside Step 3, between local-search sweep
// rounds and color classes, so a cancelled or timed-out call returns
// promptly with the ctx error (test with errors.Is) and a nil Result —
// never a partially-populated one. A pre-cancelled context returns before
// Step 2 or Step 3 run any work.
func GenerateContext(ctx context.Context, input, target *imgutil.Gray, opts Options) (*Result, error) {
	m, err := opts.validate(input, target)
	if err != nil {
		return nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return nil, fmt.Errorf("core: cancelled before preprocessing: %w", err)
	}
	// Every run is recorded into a private tree so Result.Stats is always
	// available; a caller-supplied collector observes the same events.
	tree := trace.NewTree()
	tr := trace.Multi(tree, opts.Trace)
	var dev0 cuda.Metrics
	if opts.Device != nil {
		dev0 = opts.Device.Metrics()
	}
	res, err := generate(ctx, input, target, opts, m, tr)
	deviceDelta(tr, opts.Device, dev0)
	if err != nil {
		trace.Count(tr, trace.CounterPipelineErrors, 1)
		return nil, err
	}
	trace.Count(tr, trace.CounterPipelineRuns, 1)
	res.Stats = tree.Snapshot()
	return res, nil
}

// generate runs the pipeline stages under the root span: the cacheable
// front half (prepareStages: preprocess, tiling, Step 2) followed by the
// per-request back half (finishStages: Step 3, assembly). Serving callers
// split the halves via PrepareContext/FinishContext in prepare.go.
func generate(ctx context.Context, input, target *imgutil.Gray, opts Options, m int, tr trace.Collector) (*Result, error) {
	root := trace.Start(tr, trace.SpanPipeline)
	defer root.End()
	p, err := prepareStages(ctx, input, target, opts, m, tr)
	if err != nil {
		return nil, err
	}
	return p.finishStages(ctx, opts, tr)
}

// rearrangeContext dispatches Step 3 on an already-built cost matrix. The
// local-search algorithms observe ctx between sweep rounds / color classes
// and report their counters to tr (merged with any caller-set Search.Trace);
// the exact and certified matchers observe it at their solver checkpoints.
// assignDur is the time spent inside the LAP solver (Optimization only) —
// the SpanAssign slice of the rearrangement. info is the certified solver's
// quality certificate (auction-device/sinkhorn only, nil otherwise).
func rearrangeContext(ctx context.Context, costs *metric.Matrix, opts Options, tr trace.Collector) (p perm.Perm, stats localsearch.Stats, assignDur time.Duration, info *assign.Info, err error) {
	start := opts.Start
	if start == nil {
		start = perm.Identity(costs.S)
	}
	search := opts.Search
	search.Trace = trace.Multi(search.Trace, tr)
	switch opts.Algorithm {
	case Optimization:
		t0 := time.Now()
		sp := trace.Start(tr, trace.SpanAssign)
		trace.Annotate(sp, trace.AttrSolver, string(opts.Solver))
		p, info, err := solveAssignment(ctx, costs, opts, tr)
		sp.End()
		return p, localsearch.Stats{}, time.Since(t0), info, err
	case Approximation:
		p, stats, err := localsearch.SerialContext(ctx, costs, start, search)
		return p, stats, 0, nil, err
	case ApproximationDirty:
		p, stats, err := localsearch.SerialDirtyContext(ctx, costs, start, search)
		return p, stats, 0, nil, err
	case ParallelApproximation:
		if opts.Resilience != nil {
			p, stats, err := localsearch.ParallelResilientContext(ctx, opts.Device, costs, start, opts.Coloring, search,
				localsearch.Resilience{Retry: opts.Resilience.Retry, DisableFallback: opts.Resilience.DisableFallback})
			return p, stats, 0, nil, err
		}
		p, stats, err := localsearch.ParallelContext(ctx, opts.Device, costs, start, opts.Coloring, search)
		return p, stats, 0, nil, err
	case GreedyBaseline:
		p, err := assign.Greedy(costs.S, costs.W)
		return p, localsearch.Stats{}, 0, nil, err
	case IdentityBaseline:
		if err := start.Validate(); err != nil {
			return nil, localsearch.Stats{}, 0, nil, err
		}
		return start, localsearch.Stats{}, 0, nil, nil
	case Annealing:
		p, stats, err := localsearch.AnnealThenPolishContext(ctx, costs, start, opts.Anneal, search)
		return p, stats, 0, nil, err
	}
	return nil, localsearch.Stats{}, 0, nil, fmt.Errorf("core: unknown algorithm %q: %w", opts.Algorithm, ErrOptions)
}

// solveAssignment runs the configured LAP solver. The certified solvers get
// their full option surface threaded through: the device auction receives
// the pipeline's Device, trace collector and resilience policy (so a lost
// device degrades its scan batches to the host exactly like the other
// device-backed stages); Sinkhorn runs with its tuned defaults. Every other
// solver runs through its context-aware registration. The certified
// solvers' early-exit certificate (assign.Info) is surfaced to the caller;
// the exact solvers have no certificate (their gap is zero by construction)
// and return nil.
func solveAssignment(ctx context.Context, costs *metric.Matrix, opts Options, tr trace.Collector) (perm.Perm, *assign.Info, error) {
	switch opts.Solver {
	case assign.AlgoAuctionDevice:
		dopts := assign.DeviceAuctionOptions{Device: opts.Device, Trace: tr}
		if opts.Resilience != nil {
			dopts.Retry = opts.Resilience.Retry
			// With no device at all the host mirror is the run, not a
			// degradation — only a supplied device honours DisableFallback.
			if opts.Device != nil {
				dopts.DisableFallback = opts.Resilience.DisableFallback
			}
		}
		return assign.AuctionDeviceContext(ctx, costs.S, costs.W, dopts)
	case assign.AlgoSinkhorn:
		return assign.SinkhornContext(ctx, costs.S, costs.W, assign.SinkhornOptions{})
	default:
		p, err := assign.ContextSolvers()[opts.Solver](ctx, costs.S, costs.W)
		return p, nil, err
	}
}

// Rearrange exposes Step 3 alone for callers that reuse one cost matrix
// across several algorithms (the evaluation harness compares optimization
// and approximation on identical matrices, as the paper does).
func Rearrange(costs *metric.Matrix, opts Options) (perm.Perm, localsearch.Stats, error) {
	if opts.Algorithm == "" {
		opts.Algorithm = Approximation
	}
	if opts.Solver == "" {
		opts.Solver = assign.AlgoJV
	}
	if _, ok := assign.Solvers()[opts.Solver]; !ok {
		return nil, localsearch.Stats{}, fmt.Errorf("core: unknown solver %q: %w", opts.Solver, ErrOptions)
	}
	if opts.Algorithm == ParallelApproximation && opts.Device == nil {
		return nil, localsearch.Stats{}, fmt.Errorf("core: %s requires a Device: %w", ParallelApproximation, ErrOptions)
	}
	p, stats, _, _, err := rearrangeContext(context.Background(), costs, opts, opts.Trace)
	return p, stats, err
}

// ParseSolver resolves a Step-3 exact-matcher name against the assign
// registry; the empty name selects the default (JV).
func ParseSolver(name string) (assign.Algorithm, error) {
	if name == "" {
		return assign.AlgoJV, nil
	}
	a := assign.Algorithm(name)
	if _, ok := assign.Solvers()[a]; !ok {
		return "", fmt.Errorf("core: unknown solver %q: %w", name, ErrOptions)
	}
	return a, nil
}
