package localsearch

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/assign"
	"repro/internal/cuda"
	"repro/internal/edgecolor"
	"repro/internal/metric"
	"repro/internal/perm"
	"repro/internal/synth"
	"repro/internal/tilestore"
)

// randCosts builds a deterministic random S×S cost matrix.
func randCosts(s int, seed int64) *metric.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := metric.NewMatrix(s)
	for i := range m.W {
		m.W[i] = metric.Cost(rng.Int31n(10000))
	}
	return m
}

// sceneCosts builds the real Lena→Sailboat matrix at the given size.
func sceneCosts(t testing.TB, n, tiles int) *metric.Matrix {
	t.Helper()
	return scenePairCosts(t, synth.Lena, synth.Sailboat, n, tiles)
}

// scenePairCosts builds the input→target matrix of two scenes at n² pixels
// with tiles tiles per side.
func scenePairCosts(t testing.TB, input, target synth.Scene, n, tiles int) *metric.Matrix {
	t.Helper()
	in, err := tilestore.FromImage(synth.MustGenerate(input, n), n/tiles)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := tilestore.FromImage(synth.MustGenerate(target, n), n/tiles)
	if err != nil {
		t.Fatal(err)
	}
	m, err := metric.BuildStoreBlocked(in, tg, metric.L1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSerialImprovesAndTerminates(t *testing.T) {
	m := randCosts(64, 1)
	start := perm.Identity(64)
	before := m.Total(start)
	p, st, err := Serial(m, start, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	after := m.Total(p)
	if after > before {
		t.Errorf("local search increased error: %d → %d", before, after)
	}
	if st.Passes < 1 {
		t.Error("no passes recorded")
	}
	// Start must not be mutated.
	if !start.IsIdentity() {
		t.Error("Serial mutated its start assignment")
	}
}

func TestSerialReachesSwapLocalOptimum(t *testing.T) {
	// On convergence no improving swap may remain — the definition of the
	// algorithm's fixed point.
	m := randCosts(48, 2)
	p, _, err := Serial(m, perm.Identity(48), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := m.S
	for x := 0; x < s; x++ {
		for y := x + 1; y < s; y++ {
			keep := int64(m.W[p[x]*s+x]) + int64(m.W[p[y]*s+y])
			swap := int64(m.W[p[y]*s+x]) + int64(m.W[p[x]*s+y])
			if keep > swap {
				t.Fatalf("improving swap (%d, %d) remains after convergence", x, y)
			}
		}
	}
}

func TestParallelMatchesSerialQuality(t *testing.T) {
	// The paper reports the serial and parallel variants reach slightly
	// different but comparable errors. Both must land within a few percent
	// of each other and strictly improve on the start.
	m := sceneCosts(t, 128, 16) // S = 256
	dev := cuda.New(4)
	start := perm.Identity(m.S)
	ps, _, err := Serial(m, start, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pp, _, err := Parallel(dev, m, start, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := pp.Validate(); err != nil {
		t.Fatal(err)
	}
	es := m.Total(ps)
	ep := m.Total(pp)
	if es <= 0 || ep <= 0 {
		t.Fatalf("degenerate errors: serial %d, parallel %d", es, ep)
	}
	ratio := float64(ep) / float64(es)
	if ratio > 1.05 || ratio < 0.95 {
		t.Errorf("parallel error %d vs serial %d (ratio %.3f) — expected near-parity", ep, es, ratio)
	}
}

func TestParallelReachesSwapLocalOptimumPerClass(t *testing.T) {
	// Parallel convergence means no improving swap remains across ALL pairs
	// (every pair appears in some class).
	m := randCosts(32, 5)
	dev := cuda.New(3)
	p, _, err := Parallel(dev, m, perm.Identity(32), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := m.S
	for x := 0; x < s; x++ {
		for y := x + 1; y < s; y++ {
			keep := int64(m.W[p[x]*s+x]) + int64(m.W[p[y]*s+y])
			swap := int64(m.W[p[y]*s+x]) + int64(m.W[p[x]*s+y])
			if keep > swap {
				t.Fatalf("improving swap (%d, %d) remains after parallel convergence", x, y)
			}
		}
	}
}

func TestParallelDeterministicForFixedWorkerCountAndColoring(t *testing.T) {
	// Swaps within a class are disjoint, so the outcome of a sweep is
	// independent of execution order: parallel results must be identical
	// across worker counts.
	m := randCosts(50, 9)
	coloring := edgecolor.Complete(50)
	var first perm.Perm
	for _, workers := range []int{1, 2, 8} {
		p, _, err := Parallel(cuda.New(workers), m, perm.Identity(50), coloring, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = p
		} else if !p.Equal(first) {
			t.Errorf("workers=%d produced a different assignment", workers)
		}
	}
}

func TestLocalSearchNearOptimal(t *testing.T) {
	// The paper's observation: approximation errors are within a few percent
	// of the matching optimum on real tile matrices.
	m := sceneCosts(t, 128, 16)
	opt, err := assign.JV(m.S, m.W)
	if err != nil {
		t.Fatal(err)
	}
	optCost, err := assign.TotalCost(m.S, m.W, opt)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := Serial(m, perm.Identity(m.S), Options{})
	if err != nil {
		t.Fatal(err)
	}
	approx := m.Total(p)
	if approx < optCost {
		t.Fatalf("approximation %d beat the optimum %d — solver bug", approx, optCost)
	}
	if float64(approx) > 1.10*float64(optCost) {
		t.Errorf("approximation %d more than 10%% above optimum %d", approx, optCost)
	}
}

func TestPassCountsMatchPaperScale(t *testing.T) {
	// Paper §IV-A: k ≤ 9 for S=16². Allow 2× headroom for the synthetic
	// scenes; the point is that k is O(10), not O(S).
	m := sceneCosts(t, 256, 16)
	_, st, err := Serial(m, perm.Identity(m.S), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Passes > 18 {
		t.Errorf("serial local search took %d passes at S=256 (paper: ≤ 9)", st.Passes)
	}
}

func TestMaxPassesCap(t *testing.T) {
	m := randCosts(64, 3)
	_, st, err := Serial(m, perm.Identity(64), Options{MaxPasses: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Passes != 1 {
		t.Errorf("MaxPasses=1 ran %d passes", st.Passes)
	}
	_, st, err = Parallel(cuda.New(2), m, perm.Identity(64), nil, Options{MaxPasses: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Passes != 1 {
		t.Errorf("parallel MaxPasses=1 ran %d passes", st.Passes)
	}
}

func TestBestImprovementConvergesToLocalOptimum(t *testing.T) {
	m := randCosts(24, 4)
	p, st, err := SerialBestImprovement(m, perm.Identity(24), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Same fixed-point condition.
	s := m.S
	for x := 0; x < s; x++ {
		for y := x + 1; y < s; y++ {
			keep := int64(m.W[p[x]*s+x]) + int64(m.W[p[y]*s+y])
			swap := int64(m.W[p[y]*s+x]) + int64(m.W[p[x]*s+y])
			if keep > swap {
				t.Fatalf("improving swap remains after best-improvement convergence")
			}
		}
	}
	// Best-improvement applies one swap per pass.
	if st.Swaps >= int64(st.Passes) {
		t.Errorf("swaps %d ≥ passes %d for best-improvement", st.Swaps, st.Passes)
	}
}

func TestMonotoneErrorDecreaseProperty(t *testing.T) {
	// Property: from any random start, the result never has higher error
	// than the start, and is always a valid permutation.
	f := func(seed uint64, rawS uint8) bool {
		s := int(rawS)%40 + 2
		m := randCosts(s, int64(seed))
		start := perm.Random(s, seed)
		p, _, err := Serial(m, start, Options{})
		if err != nil || p.Validate() != nil {
			return false
		}
		return m.Total(p) <= m.Total(start)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestParallelMonotoneProperty(t *testing.T) {
	dev := cuda.New(4)
	f := func(seed uint64, rawS uint8) bool {
		s := int(rawS)%30 + 2
		m := randCosts(s, int64(seed))
		start := perm.Random(s, seed)
		p, _, err := Parallel(dev, m, start, nil, Options{})
		if err != nil || p.Validate() != nil {
			return false
		}
		return m.Total(p) <= m.Total(start)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRejectsBadStarts(t *testing.T) {
	m := randCosts(8, 1)
	if _, _, err := Serial(m, perm.Perm{0, 1}, Options{}); err == nil {
		t.Error("Serial accepted short start")
	}
	if _, _, err := Serial(m, perm.Perm{0, 0, 1, 2, 3, 4, 5, 6}, Options{}); err == nil {
		t.Error("Serial accepted non-bijection")
	}
	if _, _, err := Parallel(cuda.New(1), m, perm.Perm{0}, nil, Options{}); err == nil {
		t.Error("Parallel accepted short start")
	}
	wrong := edgecolor.Complete(6)
	if _, _, err := Parallel(cuda.New(1), m, perm.Identity(8), wrong, Options{}); err == nil {
		t.Error("Parallel accepted a coloring of the wrong size")
	}
}

func TestWithRestartsNeverWorseThanSingleStart(t *testing.T) {
	m := randCosts(30, 11)
	single, _, err := Serial(m, perm.Identity(30), Options{})
	if err != nil {
		t.Fatal(err)
	}
	best, cost, _, err := WithRestarts(m, 4, 99, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := best.Validate(); err != nil {
		t.Fatal(err)
	}
	if cost > m.Total(single) {
		t.Errorf("restarts (%d) worse than single start (%d)", cost, m.Total(single))
	}
	if cost != m.Total(best) {
		t.Error("reported cost does not match returned assignment")
	}
}

func TestSwapCountsConsistent(t *testing.T) {
	m := sceneCosts(t, 64, 8)
	_, st, err := Serial(m, perm.Identity(m.S), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Swaps <= 0 {
		t.Error("no swaps recorded on a non-trivial instance")
	}
}

func BenchmarkSerialS256(b *testing.B) {
	m := sceneCosts(b, 256, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Serial(m, perm.Identity(m.S), Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchParallel runs Algorithm 2 from the identity and reports the pair
// tests each run makes as tests/op.
func benchParallel(b *testing.B, m *metric.Matrix) {
	dev := cuda.New(0)
	coloring := edgecolor.Complete(m.S)
	var tests int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := Parallel(dev, m, perm.Identity(m.S), coloring, Options{})
		if err != nil {
			b.Fatal(err)
		}
		tests += st.Attempts
	}
	b.ReportMetric(float64(tests)/float64(b.N), "tests/op")
}

func BenchmarkParallelS256(b *testing.B) {
	benchParallel(b, sceneCosts(b, 256, 16))
}

func BenchmarkSerialS1024(b *testing.B) {
	m := sceneCosts(b, 512, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Serial(m, perm.Identity(m.S), Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParallelS1024(b *testing.B) {
	benchParallel(b, sceneCosts(b, 512, 32))
}

// The S=64² benchmarks run the exact-s64 workload's shape: Lena→Peppers at
// 512², 64 tiles per side.

func BenchmarkSerialS4096(b *testing.B) {
	m := scenePairCosts(b, synth.Lena, synth.Peppers, 512, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Serial(m, perm.Identity(m.S), Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParallelS4096(b *testing.B) {
	benchParallel(b, scenePairCosts(b, synth.Lena, synth.Peppers, 512, 64))
}
