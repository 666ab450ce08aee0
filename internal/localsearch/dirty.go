// Delta-driven variants of Algorithm 1: dirty-pair tracking and candidate
// lists.
//
// The exhaustive sweep re-tests all S(S−1)/2 pairs every round, but a pair's
// improving-swap test depends only on (p[x], x, p[y], y) — if neither
// position changed occupant since the pair last failed the test, it fails
// again. SerialDirty exploits this with per-position move clocks (the classic
// don't-look-bit scheme): a sweep skips every pair already scored after both
// endpoints last moved. Skipped pairs are exactly those whose test outcome is
// already known, so the applied-swap sequence — and therefore the final
// assignment and cost — is IDENTICAL to Serial's, pair for pair, while the
// attempt count collapses after the first sweep (TestSerialDirtyReplaysSerial
// asserts equality, BENCH_pipeline.json records the attempt reduction).
//
// Candidate lists (Options.Candidates > 0) add a warm-start phase in the
// spirit of He et al.'s candidate pruning: for each target position x, the K
// input tiles with the smallest E(I_u, T_x) are extracted from column x of
// the matrix, and warm sweeps only attempt swaps that would bring such a tile
// to x. Warm sweeps concentrate attempts where column-wise improvement is
// possible but cannot certify optimality, so the search always finishes with
// dirty exhaustive sweeps over the warmed assignment — the result is a
// genuine swap-local optimum of the full neighbourhood, the same fixed-point
// class Serial reaches (TestCandidatesReachSwapLocalPlateau asserts the
// plateau).
package localsearch

import (
	"context"
	"fmt"

	"repro/internal/metric"
	"repro/internal/perm"
	"repro/internal/trace"
)

// dirtyState carries the move clocks of the don't-look scheme. clock counts
// applied swaps; lastMoved[x] is the clock value when position x last changed
// occupant (1 for "initial placement"); lastScored[x*s+y] (x < y) is the
// clock value when pair (x,y) was last known to fail the improving-swap test.
// The pair can be skipped iff lastScored ≥ both endpoints' lastMoved.
type dirtyState struct {
	s          int
	clock      int32
	lastMoved  []int32
	lastScored []int32
}

func newDirtyState(s int) *dirtyState {
	d := &dirtyState{
		s:          s,
		clock:      1,
		lastMoved:  make([]int32, s),
		lastScored: make([]int32, s*s),
	}
	for i := range d.lastMoved {
		d.lastMoved[i] = 1
	}
	return d
}

// moved records an applied swap at positions x < y: both endpoints move, and
// the swapped pair itself is provably non-improving in its new state (its
// keep/swap sums exchange roles), so it is marked scored at the new clock.
func (d *dirtyState) moved(x, y int) {
	d.clock++
	d.lastMoved[x] = d.clock
	d.lastMoved[y] = d.clock
	d.lastScored[x*d.s+y] = d.clock
}

// SerialDirty runs Algorithm 1 with dirty-pair tracking (and the candidate
// warm start when opts.Candidates > 0). See SerialDirtyContext.
func SerialDirty(m *metric.Matrix, start perm.Perm, opts Options) (perm.Perm, Stats, error) {
	return SerialDirtyContext(context.Background(), m, start, opts)
}

// SerialDirtyContext is the delta-driven serial search. With
// opts.Candidates == 0 it replays Serial exactly — same swaps in the same
// order, bit-identical final assignment — while attempting only pairs whose
// outcome is not already known. With opts.Candidates = K > 0 it first runs
// candidate-list warm sweeps (top-K tiles per position), then certifies a
// swap-local plateau with the dirty exhaustive sweeps; the result is then a
// fixed point of the full swap neighbourhood but not necessarily the one
// Serial finds. Cancellation mirrors SerialContext: checked between sweeps
// (and at row boundaries in anytime mode, where it returns the best-so-far
// assignment with Stats.Partial instead of an error).
func SerialDirtyContext(ctx context.Context, m *metric.Matrix, start perm.Perm, opts Options) (perm.Perm, Stats, error) {
	p, err := checkStart(m, start)
	if err != nil {
		return nil, Stats{}, err
	}
	var st Stats
	s := m.S
	sw := newSweep(m, p, true)
	d := newDirtyState(s)
	sample := opts.Progress != nil
	var curCost int64
	if sample {
		curCost = m.Total(p)
	}
	if opts.Candidates > 0 || opts.CandidateLists != nil {
		if opts.CandidateLists != nil {
			if len(opts.CandidateLists) != s {
				return nil, st, fmt.Errorf("localsearch: %d candidate lists for S = %d", len(opts.CandidateLists), s)
			}
			for x, list := range opts.CandidateLists {
				for _, u := range list {
					if u < 0 || int(u) >= s {
						return nil, st, fmt.Errorf("localsearch: candidate tile %d at position %d out of range for S = %d", u, x, s)
					}
				}
			}
		}
		partial, err := warmCandidates(ctx, m, sw, d, opts, &st, &curCost)
		if err != nil {
			return nil, st, err
		}
		if partial {
			return anytimeStop(m, p, &st)
		}
	}
	for {
		if err := ctxErr(ctx); err != nil {
			if opts.Anytime {
				return anytimeStop(m, p, &st)
			}
			return nil, st, fmt.Errorf("localsearch: dirty search cancelled after %d sweeps: %w", st.Passes, err)
		}
		swapped := false
		swapsBefore := st.Swaps
		attemptsBefore := st.Attempts
		for x := 0; x < s; x++ {
			if opts.Anytime && x&63 == 0 && ctxErr(ctx) != nil {
				// Row boundaries are safe points; attempts were counted
				// incrementally, so the stats already reflect the partial
				// sweep exactly.
				trace.Count(opts.Trace, trace.CounterSwapAttempts, st.Attempts-attemptsBefore)
				trace.Count(opts.Trace, trace.CounterImprovingSwaps, st.Swaps-swapsBefore)
				return anytimeStop(m, p, &st)
			}
			mx := d.lastMoved[x]
			scored := d.lastScored[x*s : (x+1)*s]
			for y := x + 1; y < s; y++ {
				if sc := scored[y]; sc >= mx && sc >= d.lastMoved[y] {
					continue
				}
				st.Attempts++
				if delta, cx, cy := sw.delta(x, y); delta < 0 {
					sw.apply(x, y, cx, cy)
					swapped = true
					st.Swaps++
					d.moved(x, y)
					mx = d.lastMoved[x]
					curCost += delta
				} else {
					scored[y] = d.clock
				}
			}
		}
		st.Passes++
		trace.Count(opts.Trace, trace.CounterSweepRounds, 1)
		trace.Count(opts.Trace, trace.CounterSwapAttempts, st.Attempts-attemptsBefore)
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

// topKColumn returns the K input tiles with the smallest E(I_u, T_x) —
// column x of the matrix — by insertion into a small sorted prefix. K is
// expected to be tens at most, so the O(S·K) scan beats sorting the column.
func topKColumn(m *metric.Matrix, x, k int) []int32 {
	s := m.S
	w := m.W
	if k > s {
		k = s
	}
	cand := make([]int32, 0, k)
	costs := make([]metric.Cost, 0, k)
	for u := 0; u < s; u++ {
		c := w[u*s+x]
		if len(cand) == k && c >= costs[k-1] {
			continue
		}
		// Find insertion point from the tail (the common case rejects at
		// the last slot, so the scan is short).
		i := len(costs)
		if i < k {
			cand = append(cand, 0)
			costs = append(costs, 0)
		} else {
			i--
		}
		for i > 0 && costs[i-1] > c {
			cand[i], costs[i] = cand[i-1], costs[i-1]
			i--
		}
		cand[i], costs[i] = int32(u), c
	}
	return cand
}

// warmCandidates runs the candidate-list warm phase: sweeps attempting only
// swaps that bring one of position x's candidate tiles to x, repeated until
// such a sweep applies no swap. Candidates come from opts.CandidateLists when
// supplied (e.g. StoreCandidates' thumbnail-derived lists) and from top-K
// matrix columns otherwise. Move clocks are maintained so the subsequent
// dirty exhaustive sweeps skip everything the warm phase left untouched.
// In anytime mode cancellation returns partial=true (the caller finalises
// the snapshot) instead of an error.
func warmCandidates(ctx context.Context, m *metric.Matrix, sw *sweep, d *dirtyState, opts Options, st *Stats, curCost *int64) (partial bool, err error) {
	s := m.S
	cands := opts.CandidateLists
	if cands == nil {
		k := opts.Candidates
		cands = make([][]int32, s)
		for x := 0; x < s; x++ {
			cands[x] = topKColumn(m, x, k)
		}
	}
	// pos is the inverse assignment: pos[u] = position currently holding
	// input tile u, maintained across swaps.
	pos := make([]int32, s)
	for v, u := range sw.p {
		pos[u] = int32(v)
	}
	for {
		if err := ctxErr(ctx); err != nil {
			if opts.Anytime {
				return true, nil
			}
			return false, fmt.Errorf("localsearch: candidate warm phase cancelled after %d sweeps: %w", st.Passes, err)
		}
		swapped := false
		swapsBefore := st.Swaps
		attemptsBefore := st.Attempts
		for x := 0; x < s; x++ {
			for _, u := range cands[x] {
				y := int(pos[u])
				if y == x {
					continue
				}
				st.Attempts++
				if delta, cx, cy := sw.delta(x, y); delta < 0 {
					sw.apply(x, y, cx, cy)
					// Tile u moved to x; x's old tile now sits at y.
					pos[u], pos[sw.p[y]] = int32(x), int32(y)
					swapped = true
					st.Swaps++
					d.moved(min(x, y), max(x, y))
					*curCost += delta
				}
			}
		}
		st.Passes++
		trace.Count(opts.Trace, trace.CounterSweepRounds, 1)
		trace.Count(opts.Trace, trace.CounterSwapAttempts, st.Attempts-attemptsBefore)
		trace.Count(opts.Trace, trace.CounterImprovingSwaps, st.Swaps-swapsBefore)
		if opts.Progress != nil {
			opts.Progress(st.Passes, *curCost, st.Swaps)
		}
		if !swapped || (opts.MaxPasses > 0 && st.Passes >= opts.MaxPasses) {
			return false, nil
		}
	}
}
