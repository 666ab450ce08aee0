package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/assign"
	"repro/internal/cuda"
	"repro/internal/hist"
	"repro/internal/imgutil"
	"repro/internal/localsearch"
	"repro/internal/metric"
	"repro/internal/perm"
	"repro/internal/tile"
	"repro/internal/tilestore"
	"repro/internal/trace"
)

// Prepared is the reusable front half of the pipeline: the preprocessed
// input, both tile grids and the S×S error matrix of one (input, target,
// geometry, metric) combination. Photomosaic serving is naturally repeated
// against a fixed target/tile library, and Steps 1–2 dominate the per-request
// cost there, so a serving layer caches Prepared values by content hash and
// runs only Step 3 + assembly per request (FinishContext).
//
// A Prepared is immutable after PrepareContext returns: concurrent
// FinishContext calls on one shared value are safe, provided each call either
// omits Options.Start or passes a perm it does not mutate elsewhere.
type Prepared struct {
	// opts are the prepare-time options with defaults applied; the fields
	// that shaped Steps 1–2 (geometry, metric, histogram matching, proxy,
	// orientations) are authoritative for every later Finish.
	opts  Options
	m     int
	input *imgutil.Gray // preprocessed (histogram-matched) input actually tiled
	// inStore/tgtStore are the columnar tile stores — contiguous padded
	// per-tile pixel blocks plus per-tile stats, gathered once here in a pass
	// fused with histogram matching. They are immutable, so every concurrent
	// FinishContext (and every Step-2 builder shard) reads them zero-copy.
	inStore  *tilestore.Store
	tgtStore *tilestore.Store
	inGrid   *tile.Grid
	tgtGrid  *tile.Grid
	costs    *metric.Matrix
	oriented *metric.OrientedMatrix
	// prepTiming carries the Preprocess and CostMatrix stage times measured
	// at prepare time; FinishContext copies them into Result.Timing, so a
	// cache-hit result reports the original build cost of the reused work.
	prepTiming Timing
}

// Tiles returns S, the number of tiles per image.
func (p *Prepared) Tiles() int { return p.costs.S }

// TileSide returns M, the tile side in pixels.
func (p *Prepared) TileSide() int { return p.m }

// MemoryBytes estimates the resident size of the prepared artifacts — the
// two pixel buffers the grids reference, both columnar tile stores (padded
// pixel blocks plus per-tile stats) and the error matrix (and, when
// orientations were scored, the per-pair orientation table). Serving caches
// use it as the eviction weight.
func (p *Prepared) MemoryBytes() int64 {
	n := int64(len(p.input.Pix)) + int64(len(p.tgtGrid.Img.Pix))
	n += p.inStore.MemoryBytes() + p.tgtStore.MemoryBytes()
	n += int64(len(p.costs.W)) * 8
	if p.oriented != nil {
		n += int64(len(p.oriented.Orient))
	}
	return n
}

// Costs returns the prepared S×S error matrix — the oriented minimum when
// orientations were scored, the proxy matrix under ProxyResolution. The
// matrix is shared, not copied: callers must treat it as read-only (the
// solver comparison, the solver-smoke gate and the perfbench traced harness
// run Step 3 on it directly).
func (p *Prepared) Costs() *metric.Matrix { return p.costs }

// InputStore returns the input image's columnar tile store (post-matching).
func (p *Prepared) InputStore() *tilestore.Store { return p.inStore }

// TargetStore returns the target image's columnar tile store.
func (p *Prepared) TargetStore() *tilestore.Store { return p.tgtStore }

// PrepareContext runs the cacheable front half of GenerateContext —
// preprocessing (§II), tiling (Step 1) and the error matrix (Step 2) — and
// returns the artifacts for any number of FinishContext calls. Options is
// validated exactly as GenerateContext validates it; stage spans are emitted
// to opts.Trace.
func PrepareContext(ctx context.Context, input, target *imgutil.Gray, opts Options) (*Prepared, error) {
	m, err := opts.validate(input, target)
	if err != nil {
		return nil, err
	}
	return prepareStages(ctx, input, target, opts, m, opts.Trace)
}

// FinishContext runs the back half of the pipeline — Step-3 rearrangement
// and assembly — on the prepared artifacts. The Step-3 fields of opts
// (Algorithm, Solver, Search, Anneal, Start, Coloring, Device, Trace) are
// honoured; everything that shaped Steps 1–2 is taken from prepare time, so
// one Prepared serves requests that differ only in rearrangement strategy.
// Result.Stats aggregates this call's spans and counters; a Finish on reused
// work therefore contains no error-matrix span — the observable signature of
// a cache hit.
func (p *Prepared) FinishContext(ctx context.Context, opts Options) (*Result, error) {
	merged, err := p.mergeFinishOptions(opts)
	if err != nil {
		return nil, err
	}
	tree := trace.NewTree()
	tr := trace.Multi(tree, merged.Trace)
	var dev0 cuda.Metrics
	if merged.Device != nil {
		dev0 = merged.Device.Metrics()
	}
	res, err := func() (*Result, error) {
		root := trace.Start(tr, trace.SpanPipeline)
		defer root.End()
		return p.finishStages(ctx, merged, tr)
	}()
	deviceDelta(tr, merged.Device, dev0)
	if err != nil {
		trace.Count(tr, trace.CounterPipelineErrors, 1)
		return nil, err
	}
	trace.Count(tr, trace.CounterPipelineRuns, 1)
	res.Stats = tree.Snapshot()
	return res, nil
}

// mergeFinishOptions overlays the Step-3 fields of next onto the
// prepare-time options and validates the combination.
func (p *Prepared) mergeFinishOptions(next Options) (Options, error) {
	o := p.opts
	o.Algorithm = next.Algorithm
	o.Solver = next.Solver
	o.Search = next.Search
	o.StoreCandidates = next.StoreCandidates
	o.Anneal = next.Anneal
	o.Start = next.Start
	o.Coloring = next.Coloring
	o.Device = next.Device
	o.Trace = next.Trace
	o.Resilience = next.Resilience
	o.Anytime = next.Anytime
	o.Deadline = next.Deadline
	if o.Algorithm == "" {
		o.Algorithm = Approximation
	}
	if _, err := ParseAlgorithm(string(o.Algorithm)); err != nil {
		return o, err
	}
	if o.Solver == "" {
		o.Solver = assign.AlgoJV
	}
	if _, ok := assign.Solvers()[o.Solver]; !ok {
		return o, fmt.Errorf("core: unknown solver %q: %w", o.Solver, ErrOptions)
	}
	if o.Algorithm == ParallelApproximation && o.Device == nil && !o.cpuFallbackAllowed() {
		return o, fmt.Errorf("core: %s requires a Device: %w", ParallelApproximation, ErrOptions)
	}
	return o, nil
}

// startFloor fills res with the anytime quality floor: the start assignment
// (or identity) untouched by any search — the paper's unrearranged mosaic.
// It is the result when the budget is exhausted before Step 3 can run at
// all, marked Partial with its achieved cost.
func (p *Prepared) startFloor(opts Options, res *Result) error {
	start := opts.Start
	if start == nil {
		start = perm.Identity(p.costs.S)
	} else if err := start.Validate(); err != nil {
		return err
	}
	res.Assignment = start
	res.SearchStats = localsearch.Stats{Partial: true, Cost: p.costs.Total(start)}
	res.AssignInfo = nil
	return nil
}

// prepareStages runs preprocessing, tiling and Step 2 under tr, with the
// same cancellation points GenerateContext has always had.
func prepareStages(ctx context.Context, input, target *imgutil.Gray, opts Options, m int, tr trace.Collector) (*Prepared, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, fmt.Errorf("core: cancelled before preprocessing: %w", err)
	}
	p := &Prepared{opts: opts, m: m}

	// §II preprocessing fused with the Step-1 gather: the target store is
	// built first (its per-tile histograms sum to exactly the target's global
	// distribution, so matching needs no separate histogram pass over the
	// target), then the input is mapped through the matching LUT and gathered
	// into its store — pixels, per-tile stats and the matched image — in one
	// traversal. tilestore.GatherLUT is byte-identical to hist.Match followed
	// by a plain gather, which TestGatherLUTFusesMatch pins.
	t0 := time.Now()
	sp := trace.Start(tr, trace.SpanPreprocess)
	var err error
	p.tgtStore, err = tilestore.FromImage(target, m)
	if err != nil {
		return nil, err
	}
	work := input
	if !opts.NoHistogramMatch {
		lut, lerr := hist.MatchLUT(hist.Of(input), p.tgtStore.GlobalHistogram())
		if lerr != nil {
			return nil, fmt.Errorf("core: histogram match: %w", lerr)
		}
		p.inStore, work, err = tilestore.GatherLUT(input, m, lut)
	} else {
		p.inStore, err = tilestore.FromImage(input, m)
	}
	if err != nil {
		return nil, err
	}
	sp.End()
	p.input = work
	p.prepTiming.Preprocess = time.Since(t0)
	if err := ctxErr(ctx); err != nil {
		return nil, fmt.Errorf("core: cancelled before tiling: %w", err)
	}

	// Step 1: tiling. The grids are views over the already-gathered images —
	// assembly and exact-error evaluation still address tiles in place — so
	// this stage is geometry validation plus two headers.
	sp = trace.Start(tr, trace.SpanTiling)
	p.inGrid, err = tile.NewGrid(work, m)
	if err != nil {
		return nil, err
	}
	p.tgtGrid, err = tile.NewGrid(target, m)
	if err != nil {
		return nil, err
	}
	sp.End()
	if err := ctxErr(ctx); err != nil {
		return nil, fmt.Errorf("core: cancelled before Step 2: %w", err)
	}

	// Step 2: the S×S error matrix (oriented variant scores all eight
	// dihedral placements per pair and keeps the best), built from the
	// columnar stores — no per-build re-gather — on the device when one is
	// supplied and on the host otherwise. Every builder is bit-identical to
	// the crop-and-score oracle of metric's differential battery.
	t0 = time.Now()
	sp = trace.Start(tr, trace.SpanCostMatrix)
	switch {
	case opts.AllowOrientations && opts.Device != nil:
		p.oriented, err = metric.BuildOrientedStoreDevice(opts.Device, p.inStore, p.tgtStore, opts.Metric)
	case opts.AllowOrientations:
		p.oriented, err = metric.BuildOrientedStore(p.inStore, p.tgtStore, opts.Metric)
	case opts.ProxyResolution > 0:
		p.costs, err = metric.BuildProxy(p.inStore, p.tgtStore, opts.Metric, opts.ProxyResolution)
	case opts.Resilience != nil:
		p.costs, err = buildCostsResilient(ctx, opts, p.inStore, p.tgtStore, tr)
	default:
		p.costs, err = metric.BuildStore(opts.Device, p.inStore, p.tgtStore, opts.Metric, metric.BuilderAuto)
	}
	if err != nil {
		return nil, err
	}
	if p.oriented != nil {
		p.costs = &p.oriented.Matrix
	}
	sp.End()
	p.prepTiming.CostMatrix = time.Since(t0)
	return p, nil
}

// finishStages runs Step 3 and assembly under tr. opts must already carry
// the prepare-time Step-1/2 fields (see mergeFinishOptions); callers inside
// this package pass the original options unchanged.
//
// In anytime mode the remaining time until opts.Deadline (falling back to
// ctx's deadline) is split into stage budgets: Step 3 runs under everything
// except the assembly/encode reserve (SplitBudget), a budget that has
// already run out skips the search entirely — the start assignment is the
// quality floor — and assembly always completes, so a deadline miss yields
// a valid, Partial result instead of an error.
func (p *Prepared) finishStages(ctx context.Context, opts Options, tr trace.Collector) (*Result, error) {
	if err := softCtxErr(ctx, opts.Anytime); err != nil {
		return nil, fmt.Errorf("core: cancelled before Step 3: %w", err)
	}
	res := &Result{Input: p.input}
	res.Timing.Preprocess = p.prepTiming.Preprocess
	res.Timing.CostMatrix = p.prepTiming.CostMatrix

	// Anytime budgeting: derive the binding Step-3 allotment from the time
	// left on the soft deadline. The search runs under its own sub-deadline
	// so the encode reserve survives; a search that exhausts it stops at a
	// safe point (Options.Search.Anytime) instead of erroring.
	searchCtx := ctx
	var deadline time.Time
	skipSearch := false
	if opts.Anytime {
		opts.Search.Anytime = true
		opts.Anneal.Anytime = true
		deadline = opts.Deadline
		if deadline.IsZero() {
			if d, ok := ctx.Deadline(); ok {
				deadline = d
			}
		}
		if !deadline.IsZero() {
			remaining := time.Until(deadline)
			res.BudgetRemaining = map[string]int64{"search": remaining.Nanoseconds()}
			if step3 := remaining - SplitBudget(remaining).Encode; step3 <= 0 {
				skipSearch = true
			} else {
				var cancel context.CancelFunc
				searchCtx, cancel = context.WithDeadline(ctx, time.Now().Add(step3))
				defer cancel()
			}
		}
	}

	if opts.StoreCandidates && opts.Algorithm == ApproximationDirty && opts.Search.CandidateLists == nil {
		// Warm the dirty search from the stores' thumbnail descriptors — the
		// stats half of the columnar store feeding Step 3 directly.
		k := opts.Search.Candidates
		if k <= 0 {
			k = 8
		}
		opts.Search.CandidateLists = localsearch.StoreCandidates(p.inStore, p.tgtStore, k)
	}

	// Step 3: rearrangement.
	t0 := time.Now()
	sp := trace.Start(tr, trace.SpanRearrange)
	var err error
	if skipSearch {
		if err := p.startFloor(opts, res); err != nil {
			return nil, err
		}
	} else {
		res.Assignment, res.SearchStats, res.Timing.Assign, res.AssignInfo, err = rearrangeContext(searchCtx, p.costs, opts, tr)
		if err != nil {
			if opts.Anytime && errors.Is(err, context.DeadlineExceeded) && ctxErr(ctx) == nil {
				// The stage budget expired inside a Step-3 algorithm with no
				// snapshot of its own (an exact matcher mid-solve holds no
				// valid assignment): degrade to the start floor.
				if ferr := p.startFloor(opts, res); ferr != nil {
					return nil, ferr
				}
			} else {
				return nil, err
			}
		}
	}
	res.Partial = res.SearchStats.Partial
	if res.SearchStats.Degraded > 0 {
		// The resilient parallel search ran some color classes on the host;
		// mark the degradation in the tree and the run-level counter (the
		// host sweeps themselves already happened inside rearrangeContext).
		trace.Count(tr, trace.CounterDegradedRuns, 1)
		trace.Start(tr, trace.SpanDegraded).End()
	}
	sp.End()
	res.Timing.Rearrange = time.Since(t0)
	if opts.ProxyResolution > 0 && opts.ProxyResolution < p.m {
		// Step 3 ran on approximate costs; report the true Eq. (2) error.
		res.TotalError, err = metric.AssignmentError(p.inGrid, p.tgtGrid, res.Assignment, opts.Metric)
		if err != nil {
			return nil, err
		}
	} else {
		res.TotalError = p.costs.Total(res.Assignment)
	}
	if err := softCtxErr(ctx, opts.Anytime); err != nil {
		return nil, fmt.Errorf("core: cancelled before assembly: %w", err)
	}
	if res.BudgetRemaining != nil {
		res.BudgetRemaining["assemble"] = time.Until(deadline).Nanoseconds()
	}

	// Assembly.
	t0 = time.Now()
	sp = trace.Start(tr, trace.SpanAssemble)
	if p.oriented != nil {
		res.Orientations, err = p.oriented.Orientations(res.Assignment)
		if err != nil {
			return nil, err
		}
		res.Mosaic, err = p.inGrid.AssembleOriented(res.Assignment, res.Orientations)
	} else {
		res.Mosaic, err = p.inGrid.Assemble(res.Assignment)
	}
	if err != nil {
		return nil, err
	}
	sp.End()
	res.Timing.Assemble = time.Since(t0)
	return res, nil
}
