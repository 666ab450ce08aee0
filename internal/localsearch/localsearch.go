// Package localsearch implements the paper's approximation algorithms:
// the serial pairwise-swap local search (Algorithm 1) and its parallel
// variant scheduled by an edge coloring of K_S (Algorithm 2).
//
// State is an assignment p with p[v] = u (input tile u at target position
// v); the improving-swap test for positions x and y is Eq. from Algorithm 1:
//
//	E(I_{p[x]}, T_x) + E(I_{p[y]}, T_y) > E(I_{p[y]}, T_x) + E(I_{p[x]}, T_y)
//
// Every applied swap strictly decreases the integer total error of Eq. (2),
// so both algorithms terminate; tests assert the monotone decrease and the
// paper's observed pass counts (k ≤ 9, 8, 16 for S = 16², 32², 64²).
//
// Every search runs the test on one sweep state (sweep.go). It keeps the
// diagonal cur[v] = E(I_{p[v]}, T_v), updated on each applied swap, so the
// keep side reads no matrix entry. The searches that test pairs in row order
// (Serial, SerialDirty, SerialBestImprovement) also build a per-run
// column-major copy of the matrix, so the swap side of pair (x, y) reads
// E(I_{p[y]}, T_x) from row x of the copy, which stays in cache for the
// whole row, and E(I_{p[x]}, T_y) from a sequential walk of matrix row p[x].
// The row-major matrix would put the first read in column x, one cache line
// per test. The copy's rows are padded to S+16 costs: at a power-of-two S
// an unpadded stride maps a column walk, such as the transpose that builds
// the copy, onto a single cache set. The copy costs S·(S+16)·4 bytes per
// run (4.3 MB at S = 32²) and is dropped when the run returns. Algorithm 2
// and annealing visit pairs in no row order and read the row-major matrix:
// two entries per test instead of four.
package localsearch

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/cuda"
	"repro/internal/edgecolor"
	"repro/internal/metric"
	"repro/internal/perm"
	"repro/internal/retry"
	"repro/internal/trace"
)

// ErrBadStart reports a start assignment unusable for the matrix.
var ErrBadStart = errors.New("localsearch: bad start assignment")

// Stats describes one local-search run.
type Stats struct {
	Passes int   // number of full sweeps (the paper's k)
	Swaps  int64 // improving swaps applied
	// Attempts counts the pair tests actually run. Serial and
	// SerialBestImprovement test all S(S−1)/2 pairs per sweep; SerialDirty
	// and Parallel skip pairs whose outcome is already known, so a run of
	// k sweeps tests at most k·S(S−1)/2.
	Attempts int64
	// Retries counts re-attempts of faulted color-class launches (resilient
	// search only; zero on a healthy device).
	Retries int64
	// Degraded counts color-class sweeps that ran on the host after device
	// retries were exhausted or the device was lost (resilient search only).
	Degraded int64
	// Partial marks a run stopped by cancellation in anytime mode
	// (Options.Anytime): the returned assignment is the valid best-so-far
	// state at the stop point, not a converged swap-local optimum.
	Partial bool
	// Cost is the Eq. (2) total error of the returned assignment, populated
	// only on Partial returns (complete runs leave it zero — callers evaluate
	// the matrix when they need the final cost).
	Cost int64
}

// Progress receives one convergence sample per completed sweep round: the
// 1-based round number, the Eq. (2) total error of the assignment after the
// round, and the cumulative applied-swap count. The local searches maintain
// the error incrementally from the applied swap deltas, so sampling adds one
// O(S) evaluation at the start of the run and O(1) per sweep.
// telemetry.ConvergenceRecorder.Sweep has exactly this signature.
type Progress func(round int, cost, swaps int64)

// Options tunes the search. The zero value reproduces the paper exactly.
type Options struct {
	// MaxPasses caps the number of sweeps; 0 means run to convergence
	// (guaranteed to terminate — the total error is a non-negative integer
	// that every swap strictly decreases).
	MaxPasses int
	// Trace optionally receives sweep-round / swap-attempt / improving-swap
	// counters as the search runs; nil traces nothing.
	Trace trace.Collector
	// Progress optionally receives a cost sample after every sweep round —
	// the cost-vs-work convergence curve; nil records nothing and the search
	// skips the cost bookkeeping entirely.
	Progress Progress
	// Candidates, when positive, makes SerialDirty warm-start with top-K
	// candidate-list sweeps (K = Candidates) before certifying the plateau
	// with exhaustive dirty sweeps. Ignored by the other searches.
	Candidates int
	// CandidateLists, when non-nil, supplies the warm phase's per-position
	// candidate tiles directly — one list per target position — instead of
	// extracting top-K matrix columns. StoreCandidates derives such lists
	// from the tile stores' thumbnail feature vectors without touching the
	// matrix. Setting it enables the warm phase even when Candidates is 0.
	// Ignored by the searches without a warm phase.
	CandidateLists [][]int32
	// Anytime makes cancellation a result instead of an error: when ctx
	// expires mid-run the search stops at the nearest safe point — a row
	// boundary for the serial searches, a color-class boundary for the
	// parallel one, an epoch for annealing — and returns the current
	// assignment (always a valid permutation; swaps are atomic) with
	// Stats.Partial set and Stats.Cost the achieved Eq. (2) error. The
	// default (false) keeps the original contract: cancellation discards
	// the partial assignment and returns the ctx error.
	Anytime bool
}

// ctxErr returns ctx's error if it is already done, nil otherwise — the
// non-blocking check the searches run between sweeps and color classes.
func ctxErr(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// anytimeStop finalises a partial result: the current assignment is always
// valid (swaps are atomic), so anytime mode returns it with the achieved
// Eq. (2) cost instead of the ctx error.
func anytimeStop(m *metric.Matrix, p perm.Perm, st *Stats) (perm.Perm, Stats, error) {
	st.Partial = true
	st.Cost = m.Total(p)
	return p, *st, nil
}

// checkStart validates (m, start) and returns a working copy of start.
func checkStart(m *metric.Matrix, start perm.Perm) (perm.Perm, error) {
	if len(start) != m.S {
		return nil, fmt.Errorf("localsearch: %d-element start for S = %d: %w", len(start), m.S, ErrBadStart)
	}
	if err := start.Validate(); err != nil {
		return nil, fmt.Errorf("localsearch: %v: %w", err, ErrBadStart)
	}
	return start.Clone(), nil
}

// Serial runs Algorithm 1 from the given start assignment: repeated sweeps
// over all position pairs x < y, swapping whenever the swap reduces the
// error, until a sweep applies no swap. Swaps take effect immediately within
// a sweep (first-improvement), exactly as in the paper's listing.
func Serial(m *metric.Matrix, start perm.Perm, opts Options) (perm.Perm, Stats, error) {
	return SerialContext(context.Background(), m, start, opts)
}

// SerialContext is Serial with cancellation: ctx is checked before every
// sweep (and, in anytime mode, at every row boundary inside the sweep), so
// cancellation latency is bounded by one sweep round. On cancellation the
// partial assignment is discarded and the ctx error is returned (wrapped;
// test with errors.Is) alongside the stats accumulated so far — unless
// Options.Anytime is set, in which case the best-so-far assignment is
// returned with Stats.Partial.
func SerialContext(ctx context.Context, m *metric.Matrix, start perm.Perm, opts Options) (perm.Perm, Stats, error) {
	p, err := checkStart(m, start)
	if err != nil {
		return nil, Stats{}, err
	}
	var st Stats
	s := m.S
	sw := newSweep(m, p, true)
	// The convergence curve is maintained incrementally: one O(S) evaluation
	// up front, then each applied swap's delta, so sampling never re-walks
	// the matrix.
	sample := opts.Progress != nil
	var curCost int64
	if sample {
		curCost = m.Total(p)
	}
	for {
		if err := ctxErr(ctx); err != nil {
			if opts.Anytime {
				return anytimeStop(m, p, &st)
			}
			return nil, st, fmt.Errorf("localsearch: serial search cancelled after %d sweeps: %w", st.Passes, err)
		}
		swapsBefore := st.Swaps
		for x := 0; x < s; x++ {
			if opts.Anytime && ctxErr(ctx) != nil {
				// Row boundaries are safe points too: rows 0..x-1 of this
				// sweep tested pairs(x') = Σ_{i<x}(s-1-i) = x(2s-x-1)/2.
				st.Attempts += int64(x) * int64(2*s-x-1) / 2
				trace.Count(opts.Trace, trace.CounterSwapAttempts, int64(x)*int64(2*s-x-1)/2)
				trace.Count(opts.Trace, trace.CounterImprovingSwaps, st.Swaps-swapsBefore)
				return anytimeStop(m, p, &st)
			}
			n, d := sw.row(x)
			st.Swaps += n
			curCost += d
		}
		swapped := st.Swaps > swapsBefore
		st.Passes++
		st.Attempts += int64(s) * int64(s-1) / 2
		trace.Count(opts.Trace, trace.CounterSweepRounds, 1)
		trace.Count(opts.Trace, trace.CounterSwapAttempts, int64(s)*int64(s-1)/2)
		trace.Count(opts.Trace, trace.CounterImprovingSwaps, st.Swaps-swapsBefore)
		if sample {
			opts.Progress(st.Passes, curCost, st.Swaps)
		}
		if !swapped || (opts.MaxPasses > 0 && st.Passes >= opts.MaxPasses) {
			break
		}
	}
	return p, st, nil
}

// SerialBestImprovement is the best-improvement ablation of Algorithm 1:
// each sweep finds the single most-improving swap and applies only that.
// It converges to the same kind of swap-local optimum but needs one sweep
// per swap, which is why the paper's first-improvement sweep is the right
// design — the ablation bench quantifies the gap.
func SerialBestImprovement(m *metric.Matrix, start perm.Perm, opts Options) (perm.Perm, Stats, error) {
	p, err := checkStart(m, start)
	if err != nil {
		return nil, Stats{}, err
	}
	var st Stats
	s := m.S
	sw := newSweep(m, p, true)
	for {
		bestDelta := int64(0)
		bestX, bestY := -1, -1
		for x := 0; x < s; x++ {
			for y := x + 1; y < s; y++ {
				if d, _, _ := sw.delta(x, y); d < bestDelta {
					bestDelta = d
					bestX, bestY = x, y
				}
			}
		}
		st.Passes++
		st.Attempts += int64(s) * int64(s-1) / 2
		if bestX < 0 {
			break
		}
		_, cx, cy := sw.delta(bestX, bestY)
		sw.apply(bestX, bestY, cx, cy)
		st.Swaps++
		if opts.MaxPasses > 0 && st.Passes >= opts.MaxPasses {
			break
		}
	}
	return p, st, nil
}

// pairsPerBlock is the number of color-class pairs each CUDA block handles
// in the parallel sweep. The per-pair work is at most two matrix reads (the
// keep side comes from the sweep's diagonal), so blocks batch pairs to
// amortise scheduling.
const pairsPerBlock = 256

// Parallel runs Algorithm 2 on the device: each sweep walks the color
// classes of K_S in order, launching one kernel per class whose threads
// test-and-swap the class's pairs concurrently. Pairs within a class are
// vertex-disjoint (guaranteed by the coloring), so the concurrent swaps
// touch disjoint entries of the assignment and each applied swap strictly
// improves the error just as in the serial algorithm. From the second sweep
// on, a pair is tested only when one of its positions changed since the
// pair's previous test one sweep earlier (classSweep in sweep.go): any other
// test would fail again, so the result is that of testing every pair.
//
// coloring must be a verified coloring of K_S; pass nil to have one built
// (the paper precomputes it once per S and reuses it across images — reuse
// by passing the same coloring to repeated calls).
func Parallel(dev *cuda.Device, m *metric.Matrix, start perm.Perm, coloring *edgecolor.Coloring, opts Options) (perm.Perm, Stats, error) {
	return ParallelContext(context.Background(), dev, m, start, coloring, opts)
}

// KernelSwapSweep is the kernel name the parallel sweep launches under (one
// launch per color class) — the cuda.FaultPlan.Kernel target for Step 3.
const KernelSwapSweep = "swap-sweep"

// Resilience configures the fault-tolerant parallel search.
type Resilience struct {
	// Retry is the per-class-launch retry schedule (zero value = defaults:
	// 3 attempts, exponential backoff with jitter).
	Retry retry.Policy
	// DisableFallback turns off the host fallback: exhausted retries fail
	// the search instead of degrading.
	DisableFallback bool
}

// ParallelContext is Parallel with cancellation: ctx is checked before every
// sweep and between the kernel launches of consecutive color classes (the
// paper's global barriers), so cancellation latency is bounded by one
// class's kernel. The partial assignment is discarded on cancellation.
func ParallelContext(ctx context.Context, dev *cuda.Device, m *metric.Matrix, start perm.Perm, coloring *edgecolor.Coloring, opts Options) (perm.Perm, Stats, error) {
	return parallelSearch(ctx, dev, m, start, coloring, opts, nil)
}

// ParallelResilientContext is ParallelContext through the fault-aware launch
// path: each color-class launch goes through res.Retry (faults and
// re-attempts are counted on opts.Trace as cuda.launch-faults and
// cuda.launch-retries), and a class whose retries are exhausted — or any
// class after the device reports cuda.ErrDeviceLost — is swept on the host
// instead, counted in Stats.Degraded.
//
// The degraded result is bit-identical to the healthy parallel run: a faulted
// launch fails before executing any pair (the fault gate precedes the
// kernel), pairs within a class are vertex-disjoint so their execution order
// cannot matter, and the host sweep runs the kernel's blocks, the same
// test-and-swap over the same pairs, one after another. The retry unit is
// one class launch because launches are Algorithm 2's global barriers — see
// DESIGN.md.
func ParallelResilientContext(ctx context.Context, dev *cuda.Device, m *metric.Matrix, start perm.Perm, coloring *edgecolor.Coloring, opts Options, res Resilience) (perm.Perm, Stats, error) {
	return parallelSearch(ctx, dev, m, start, coloring, opts, &res)
}

// parallelSearch is the shared implementation; res == nil selects the
// original panic-on-misuse launch path with no retry machinery.
func parallelSearch(ctx context.Context, dev *cuda.Device, m *metric.Matrix, start perm.Perm, coloring *edgecolor.Coloring, opts Options, res *Resilience) (perm.Perm, Stats, error) {
	p, err := checkStart(m, start)
	if err != nil {
		return nil, Stats{}, err
	}
	if coloring == nil {
		coloring = edgecolor.Complete(m.S)
	} else if coloring.N != m.S {
		return nil, Stats{}, fmt.Errorf("localsearch: coloring of K_%d for S = %d: %w", coloring.N, m.S, ErrBadStart)
	}
	var st Stats
	// No column-major copy: a color class visits positions in no row order.
	// Each pair's test writes only its own two positions' state, and the
	// pairs of a class are vertex-disjoint, so the kernel's blocks never
	// share a slot.
	cs := newClassSweep(m, p)
	var swapCount, attempts atomic.Int64
	// Convergence sampling mirrors the serial search: one O(S) evaluation up
	// front, then per-block swap deltas folded into an atomic accumulator
	// (the concurrent swaps touch disjoint pairs, so the deltas are exact).
	sample := opts.Progress != nil
	var cost0 int64
	var costDelta atomic.Int64
	if sample {
		cost0 = m.Total(p)
	}
	// Resilient-path state: one retry-policy copy for the whole search (its
	// jitter stream advances across classes) and a sticky device-dead flag —
	// once the device is lost, remaining classes go straight to the host
	// without further launch attempts. A nil device with fallback enabled is
	// the fully-degraded case: every class runs on the host from the start.
	var pol retry.Policy
	if res != nil {
		pol = res.Retry
	}
	if pol.OnBackoff == nil {
		// Backoff sleeps run on this (the search) goroutine, so the span
		// nests correctly in the caller's tree.
		pol.OnBackoff = func(sleep func() error) error {
			defer trace.Start(opts.Trace, trace.SpanRetryBackoff).End()
			return sleep()
		}
	}
	deviceDead := false
	if dev == nil {
		if res == nil || res.DisableFallback {
			return nil, Stats{}, errors.New("localsearch: parallel search requires a device")
		}
		deviceDead = true
	}
	// stop fills in the counters accumulated so far for an early return.
	stop := func() *Stats {
		st.Swaps, st.Attempts = swapCount.Load(), attempts.Load()
		return &st
	}
	classes := int64(len(coloring.Classes))
	hostScratch := new(blockScratch)
	for {
		if err := ctxErr(ctx); err != nil {
			if opts.Anytime {
				return anytimeStop(m, p, stop())
			}
			return nil, *stop(), fmt.Errorf("localsearch: parallel search cancelled after %d sweeps: %w", st.Passes, err)
		}
		swapsBefore, attemptsBefore := swapCount.Load(), attempts.Load()
		var swapped atomic.Bool
		for ci, class := range coloring.Classes {
			if ci > 0 {
				// The launch boundary below is the natural cancellation
				// point between color classes: all prior launches completed,
				// so the assignment is a consistent snapshot.
				if err := ctxErr(ctx); err != nil {
					if opts.Anytime {
						return anytimeStop(m, p, stop())
					}
					return nil, *stop(), fmt.Errorf("localsearch: parallel search cancelled in sweep %d: %w", st.Passes+1, err)
				}
			}
			pairs := class
			grid := (len(pairs) + pairsPerBlock - 1) / pairsPerBlock
			if grid == 0 {
				continue
			}
			// The class runs at time now; its pairs were last tested one
			// sweep earlier, at now − classes (≤ 0 in the first sweep).
			now := int64(st.Passes)*classes + int64(ci) + 1
			// runBlock is one block of the class: the kernel runs it on the
			// device, hostClass on the host. Pairs within a class are
			// vertex-disjoint, so the blocks' order cannot change the result
			// and a degraded class is bit-identical to the kernel.
			runBlock := func(bi int, sc *blockScratch) {
				lo := bi * pairsPerBlock
				hi := min(lo+pairsPerBlock, len(pairs))
				tests, swaps, delta := cs.block(pairs[lo:hi], now-classes, now, sc)
				attempts.Add(tests)
				if swaps > 0 {
					swapCount.Add(swaps)
					swapped.Store(true)
					if sample {
						costDelta.Add(delta)
					}
				}
			}
			// One kernel launch per color class; the launch boundary is the
			// global barrier between classes (paper §V).
			kernel := func(b *cuda.Block) {
				runBlock(b.Idx, (*blockScratch)(b.SharedInts(len(blockScratch{}))))
			}
			if res == nil {
				dev.Launch(grid, pairsPerBlock, kernel)
				continue
			}
			hostClass := func() {
				for bi := 0; bi < grid; bi++ {
					runBlock(bi, hostScratch)
				}
			}
			if deviceDead {
				hostClass()
				st.Degraded++
				continue
			}
			lerr := pol.Do(ctx, func(attempt int) error {
				if attempt > 1 {
					st.Retries++
					trace.Count(opts.Trace, trace.CounterLaunchRetries, 1)
				}
				err := dev.LaunchErr(ctx, KernelSwapSweep, grid, pairsPerBlock, kernel)
				if err != nil {
					trace.Count(opts.Trace, trace.CounterLaunchFaults, 1)
					if errors.Is(err, cuda.ErrDeviceLost) {
						// Retrying on a lost device is pointless; fall
						// through to the host immediately.
						return retry.Stop(err)
					}
				}
				return err
			})
			if lerr == nil {
				continue
			}
			if errors.Is(lerr, context.Canceled) || errors.Is(lerr, context.DeadlineExceeded) {
				if opts.Anytime {
					// The faulted launch executed no pairs (the fault gate
					// precedes the kernel), so p is a consistent snapshot.
					return anytimeStop(m, p, stop())
				}
				return nil, *stop(), fmt.Errorf("localsearch: parallel search cancelled in sweep %d: %w", st.Passes+1, lerr)
			}
			if res.DisableFallback {
				return nil, *stop(), fmt.Errorf("localsearch: class launch failed with host fallback disabled: %w", lerr)
			}
			if errors.Is(lerr, cuda.ErrDeviceLost) {
				deviceDead = true
			}
			hostClass()
			st.Degraded++
		}
		st.Passes++
		trace.Count(opts.Trace, trace.CounterSweepRounds, 1)
		trace.Count(opts.Trace, trace.CounterSwapAttempts, attempts.Load()-attemptsBefore)
		trace.Count(opts.Trace, trace.CounterImprovingSwaps, swapCount.Load()-swapsBefore)
		if sample {
			opts.Progress(st.Passes, cost0+costDelta.Load(), swapCount.Load())
		}
		if !swapped.Load() || (opts.MaxPasses > 0 && st.Passes >= opts.MaxPasses) {
			break
		}
	}
	return p, *stop(), nil
}

// WithRestarts runs Algorithm 1 from the identity start plus `restarts`
// seeded random starts and keeps the lowest-error result — the restart
// ablation showing how close single-start local search already gets to the
// matching optimum. Returns the winning assignment, its error under m, and
// the stats of the winning run.
func WithRestarts(m *metric.Matrix, restarts int, seed uint64, opts Options) (perm.Perm, int64, Stats, error) {
	best, st, err := Serial(m, perm.Identity(m.S), opts)
	if err != nil {
		return nil, 0, Stats{}, err
	}
	bestCost := m.Total(best)
	for r := 0; r < restarts; r++ {
		cand, cst, err := Serial(m, perm.Random(m.S, seed+uint64(r)), opts)
		if err != nil {
			return nil, 0, Stats{}, err
		}
		if c := m.Total(cand); c < bestCost {
			best, bestCost, st = cand, c, cst
		}
	}
	return best, bestCost, st, nil
}
