package localsearch

import (
	"context"
	"fmt"
	"math"

	"repro/internal/metric"
	"repro/internal/perm"
	"repro/internal/trace"
)

// AnnealProgress receives one convergence sample per cooling epoch (every S
// proposed swaps): the 1-based epoch number, the current Eq. (2) error of
// the walking state (not the best-so-far), and the temperature before
// cooling. Unlike the sweep curve, annealing samples may rise — that is the
// Metropolis acceptance doing its job. telemetry.ConvergenceRecorder.Anneal
// has exactly this signature.
type AnnealProgress func(epoch int, cost int64, temperature float64)

// AnnealOptions tunes Anneal. The zero value selects defaults derived from
// the instance.
type AnnealOptions struct {
	// Steps is the number of proposed swaps; 0 means 300·S.
	Steps int
	// T0 is the initial temperature; 0 derives it from the matrix so the
	// early acceptance rate is high (mean diagonal cost / 2).
	T0 float64
	// Alpha is the geometric cooling factor applied every S steps;
	// 0 means 0.97. Must lie in (0, 1) when set.
	Alpha float64
	// Seed drives the proposal and acceptance randomness; fixed seeds make
	// runs reproducible.
	Seed uint64
	// Progress optionally receives a cost/temperature sample at every
	// cooling epoch; nil records nothing.
	Progress AnnealProgress
	// Anytime mirrors Options.Anytime for the annealer: cancellation at an
	// epoch boundary returns the best assignment seen so far with
	// Stats.Partial and Stats.Cost, instead of discarding it with an error.
	Anytime bool
}

// Anneal is a simulated-annealing extension of the paper's local search
// (documented in DESIGN.md): random pair swaps are accepted when they
// improve the error or, with probability exp(−Δ/T), when they worsen it,
// with T cooled geometrically. Escaping swap-local optima lets it sometimes
// beat Algorithm 1's fixed point, at far higher cost per unit of quality —
// the ablation bench quantifies the trade. Returns the best assignment
// seen, its error, and the accepted-swap count in Stats.Swaps (Stats.Passes
// counts cooling epochs).
func Anneal(m *metric.Matrix, start perm.Perm, opts AnnealOptions) (perm.Perm, int64, Stats, error) {
	return AnnealContext(context.Background(), m, start, opts, nil)
}

// AnnealContext is Anneal with cancellation and tracing: ctx is checked at
// every cooling epoch (every S proposed swaps), bounding cancellation
// latency, and tr (which may be nil) receives trace.CounterAnnealSteps
// increments per epoch.
func AnnealContext(ctx context.Context, m *metric.Matrix, start perm.Perm, opts AnnealOptions, tr trace.Collector) (perm.Perm, int64, Stats, error) {
	cur, err := checkStart(m, start)
	if err != nil {
		return nil, 0, Stats{}, err
	}
	s := m.S
	if opts.Steps < 0 || opts.T0 < 0 {
		return nil, 0, Stats{}, fmt.Errorf("localsearch: negative annealing parameters: %w", ErrBadStart)
	}
	if opts.Alpha != 0 && (opts.Alpha <= 0 || opts.Alpha >= 1) {
		return nil, 0, Stats{}, fmt.Errorf("localsearch: Alpha %v outside (0, 1): %w", opts.Alpha, ErrBadStart)
	}
	steps := opts.Steps
	if steps == 0 {
		steps = 300 * s
	}
	alpha := opts.Alpha
	if alpha == 0 {
		alpha = 0.97
	}
	sw := newSweep(m, cur, false)
	curErr := m.Total(cur)
	best := cur.Clone()
	bestErr := curErr

	temp := opts.T0
	if temp == 0 {
		// Mean per-position cost of the start sets the scale of Δ.
		temp = float64(curErr) / float64(s) / 2
		if temp < 1 {
			temp = 1
		}
	}

	rng := annealRNG{state: opts.Seed ^ 0x9e3779b97f4a7c15}
	var st Stats
	if s < 2 {
		return best, bestErr, st, nil
	}
	for step := 0; step < steps; step++ {
		x := rng.intn(s)
		y := rng.intn(s - 1)
		if y >= x {
			y++
		}
		delta, cx, cy := sw.delta(x, y)
		accept := delta <= 0
		if !accept && temp > 0 {
			accept = rng.float64() < math.Exp(-float64(delta)/temp)
		}
		if accept {
			sw.apply(x, y, cx, cy)
			curErr += delta
			st.Swaps++
			if curErr < bestErr {
				bestErr = curErr
				copy(best, cur)
			}
		}
		if (step+1)%s == 0 {
			st.Passes++
			if opts.Progress != nil {
				opts.Progress(st.Passes, curErr, temp)
			}
			temp *= alpha
			trace.Count(tr, trace.CounterAnnealSteps, int64(s))
			if err := ctxErr(ctx); err != nil {
				if opts.Anytime {
					// The annealer already tracks its incumbent: return it
					// directly (bestErr is maintained incrementally).
					st.Partial = true
					st.Cost = bestErr
					return best, bestErr, st, nil
				}
				return nil, 0, st, fmt.Errorf("localsearch: annealing cancelled after %d epochs: %w", st.Passes, err)
			}
		}
	}
	trace.Count(tr, trace.CounterAnnealSteps, int64(steps%s))
	return best, bestErr, st, nil
}

// AnnealThenPolish runs Anneal and then drives the result to a swap-local
// optimum with Algorithm 1 — the strongest approximation configuration in
// this repository: never worse than Serial from the same start in error
// (both end at local optima, but annealing explores basins Serial cannot
// leave... strictly, the guarantee is only "a local optimum at least as
// good as the annealed point"). Returns the polished assignment and
// combined stats.
func AnnealThenPolish(m *metric.Matrix, start perm.Perm, opts AnnealOptions) (perm.Perm, Stats, error) {
	return AnnealThenPolishContext(context.Background(), m, start, opts, Options{})
}

// AnnealThenPolishContext is AnnealThenPolish with cancellation and tracing;
// search tunes (and traces) the polishing run, and its Trace collector also
// observes the annealing phase.
// In anytime mode (search.Anytime, which also covers the annealing phase)
// cancellation during annealing skips the polish and returns the annealer's
// incumbent; cancellation during the polish returns its snapshot — either
// way a valid assignment with Stats.Partial instead of an error.
func AnnealThenPolishContext(ctx context.Context, m *metric.Matrix, start perm.Perm, opts AnnealOptions, search Options) (perm.Perm, Stats, error) {
	opts.Anytime = opts.Anytime || search.Anytime
	annealed, aerr, st, err := AnnealContext(ctx, m, start, opts, search.Trace)
	if err != nil {
		return nil, Stats{}, err
	}
	if st.Partial {
		st.Cost = aerr
		return annealed, st, nil
	}
	polished, st2, err := SerialContext(ctx, m, annealed, search)
	if err != nil {
		return nil, Stats{}, err
	}
	st.Passes += st2.Passes
	st.Swaps += st2.Swaps
	st.Attempts += st2.Attempts
	st.Partial = st2.Partial
	st.Cost = st2.Cost
	return polished, st, nil
}

// annealRNG is a splitmix64 stream local to the annealer (math/rand's global
// stream would break reproducibility across runs).
type annealRNG struct{ state uint64 }

func (r *annealRNG) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *annealRNG) intn(n int) int {
	bound := uint64(n)
	limit := (^uint64(0) / bound) * bound
	for {
		if v := r.next(); v < limit {
			return int(v % bound)
		}
	}
}

func (r *annealRNG) float64() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}
