package core

import (
	"testing"

	"repro/internal/cuda"
	"repro/internal/hist"
	"repro/internal/localsearch"
	"repro/internal/metric"
	"repro/internal/perm"
	"repro/internal/synth"
	"repro/internal/tile"
	"repro/internal/tilestore"
)

// TestAssignmentPermutationProperty checks, for every Algorithm × Metric
// combination, the two invariants every engine must deliver: the assignment
// is a valid permutation of 0..S−1, and the reported cost equals the
// independently recomputed Eq. (2) error of that assignment (differential
// check against internal/metric, which evaluates directly from tile pixels
// rather than through the engine's cost matrix).
func TestAssignmentPermutationProperty(t *testing.T) {
	input, target := pair(t, 64)
	const tiles = 8
	m := 64 / tiles
	dev := cuda.New(4)
	for _, alg := range Algorithms() {
		for _, met := range []metric.Metric{metric.L1, metric.L2} {
			t.Run(string(alg)+"/"+met.String(), func(t *testing.T) {
				opts := Options{TilesPerSide: tiles, Algorithm: alg, Metric: met}
				if alg == ParallelApproximation {
					opts.Device = dev
				}
				res, err := Generate(input, target, opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Assignment) != tiles*tiles {
					t.Fatalf("assignment length %d, want %d", len(res.Assignment), tiles*tiles)
				}
				if err := res.Assignment.Validate(); err != nil {
					t.Fatalf("assignment is not a permutation: %v", err)
				}
				inGrid, err := tile.NewGrid(res.Input, m)
				if err != nil {
					t.Fatal(err)
				}
				tgtGrid, err := tile.NewGrid(target, m)
				if err != nil {
					t.Fatal(err)
				}
				want, err := metric.AssignmentError(inGrid, tgtGrid, res.Assignment, met)
				if err != nil {
					t.Fatal(err)
				}
				if res.TotalError != want {
					t.Fatalf("reported cost %d != recomputed assignment error %d", res.TotalError, want)
				}
			})
		}
	}
}

// TestAlgorithmCostOrdering runs every engine on shared cost matrices (same
// scenes, same preprocessing, same seeds) and asserts the quality ordering
// the algorithms guarantee by construction:
//
//	cost(Optimization) ≤ cost(Approximation) ≤ cost(Greedy) ≤ cost(Identity)
//
// and that serial and parallel approximation both converge to swap-local
// optima — their cost plateaus: re-polishing either result with Algorithm 1
// applies zero further swaps.
func TestAlgorithmCostOrdering(t *testing.T) {
	dev := cuda.New(4)
	cases := []struct {
		in, tgt synth.Scene
	}{
		{synth.Lena, synth.Sailboat},
		{synth.Peppers, synth.Airplane},
		{synth.Baboon, synth.Barbara},
	}
	for _, tc := range cases {
		t.Run(string(tc.in)+"_"+string(tc.tgt), func(t *testing.T) {
			input := synth.MustGenerate(tc.in, 128)
			target := synth.MustGenerate(tc.tgt, 128)
			matched, err := hist.Match(input, target)
			if err != nil {
				t.Fatal(err)
			}
			inStore, err := tilestore.FromImage(matched, matched.W/16)
			if err != nil {
				t.Fatal(err)
			}
			tgtStore, err := tilestore.FromImage(target, target.W/16)
			if err != nil {
				t.Fatal(err)
			}
			costs, err := metric.BuildStoreBlocked(inStore, tgtStore, metric.L1)
			if err != nil {
				t.Fatal(err)
			}

			run := func(alg Algorithm) (perm.Perm, int64) {
				t.Helper()
				opts := Options{Algorithm: alg}
				if alg == ParallelApproximation {
					opts.Device = dev
				}
				p, _, err := Rearrange(costs, opts)
				if err != nil {
					t.Fatalf("%s: %v", alg, err)
				}
				return p, costs.Total(p)
			}
			pOpt, opt := run(Optimization)
			pApx, apx := run(Approximation)
			pPar, par := run(ParallelApproximation)
			_, greedy := run(GreedyBaseline)
			_, identity := run(IdentityBaseline)

			if err := pOpt.Validate(); err != nil {
				t.Fatal(err)
			}
			if opt > apx {
				t.Errorf("optimization %d worse than approximation %d", opt, apx)
			}
			if opt > par {
				t.Errorf("optimization %d worse than parallel approximation %d", opt, par)
			}
			if apx > greedy {
				t.Errorf("approximation %d worse than greedy %d", apx, greedy)
			}
			if par > greedy {
				t.Errorf("parallel approximation %d worse than greedy %d", par, greedy)
			}
			if greedy > identity {
				t.Errorf("greedy %d worse than identity %d", greedy, identity)
			}

			// Local-optimality plateau: a full Algorithm-1 polish of either
			// approximation result must find nothing left to improve.
			for name, p := range map[string]perm.Perm{"serial": pApx, "parallel": pPar} {
				polished, st, err := localsearch.Serial(costs, p, localsearch.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if st.Swaps != 0 {
					t.Errorf("%s result was not swap-local-optimal: polish applied %d swaps", name, st.Swaps)
				}
				if got := costs.Total(polished); got != costs.Total(p) {
					t.Errorf("%s plateau moved: %d → %d", name, costs.Total(p), got)
				}
			}
		})
	}
}

// TestGenerateStatsSpans asserts the acceptance-level contract of
// Result.Stats: one span per pipeline stage with non-zero totals, counters
// consistent with SearchStats, and kernel counters present whenever the
// device ran.
func TestGenerateStatsSpans(t *testing.T) {
	input, target := pair(t, 128)
	dev := cuda.New(2)
	res, err := Generate(input, target, Options{
		TilesPerSide: 16,
		Algorithm:    ParallelApproximation,
		Device:       dev,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"pipeline", "histogram-match", "tiling", "error-matrix", "rearrangement", "assembly"} {
		sp := res.Stats.Span(name)
		if sp.Count != 1 {
			t.Errorf("span %q recorded %d times, want 1", name, sp.Count)
		}
		if sp.Total <= 0 {
			t.Errorf("span %q has non-positive total %v", name, sp.Total)
		}
	}
	if got := res.Stats.Counter("search.sweep-rounds"); got != int64(res.SearchStats.Passes) {
		t.Errorf("sweep-rounds counter %d != SearchStats.Passes %d", got, res.SearchStats.Passes)
	}
	if got := res.Stats.Counter("search.improving-swaps"); got != res.SearchStats.Swaps {
		t.Errorf("improving-swaps counter %d != SearchStats.Swaps %d", got, res.SearchStats.Swaps)
	}
	// Algorithm 2 tests every pair in its first sweep and afterwards only
	// the pairs whose outcome is not already known.
	s := int64(16 * 16)
	got := res.Stats.Counter("search.swap-attempts")
	if got != res.SearchStats.Attempts {
		t.Errorf("swap-attempts counter %d != SearchStats.Attempts %d", got, res.SearchStats.Attempts)
	}
	if lo, hi := s*(s-1)/2, int64(res.SearchStats.Passes)*s*(s-1)/2; got < lo || got > hi {
		t.Errorf("swap-attempts counter %d outside [S(S−1)/2, passes·S(S−1)/2] = [%d, %d]", got, lo, hi)
	}
	if res.Stats.Counter("cuda.kernel-launches") <= 0 {
		t.Error("no kernel launches counted despite device execution")
	}
	if res.Stats.Counter("cuda.blocks-executed") < res.Stats.Counter("cuda.kernel-launches") {
		t.Error("fewer blocks than launches counted")
	}
}
