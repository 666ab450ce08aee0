package core

import (
	"testing"

	"repro/internal/assign"
	"repro/internal/cuda"
	"repro/internal/edgecolor"
	"repro/internal/hist"
	"repro/internal/imgutil"
	"repro/internal/metric"
	"repro/internal/perm"
	"repro/internal/synth"
	"repro/internal/tilestore"
)

func pair(t testing.TB, n int) (*imgutil.Gray, *imgutil.Gray) {
	t.Helper()
	return synth.MustGenerate(synth.Lena, n), synth.MustGenerate(synth.Sailboat, n)
}

func TestGenerateEndToEnd(t *testing.T) {
	input, target := pair(t, 128)
	res, err := Generate(input, target, Options{TilesPerSide: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mosaic.W != 128 || res.Mosaic.H != 128 {
		t.Fatalf("mosaic geometry %dx%d", res.Mosaic.W, res.Mosaic.H)
	}
	if err := res.Assignment.Validate(); err != nil {
		t.Fatal(err)
	}
	// Reported error must equal the image-level error of the mosaic.
	imgErr, err := res.Mosaic.AbsDiffSum(target)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalError != imgErr {
		t.Errorf("TotalError %d != image error %d", res.TotalError, imgErr)
	}
	if res.SearchStats.Passes < 1 {
		t.Error("no local-search passes recorded")
	}
}

func TestGeneratePreservesTileMultiset(t *testing.T) {
	// The mosaic is a rearrangement of the (preprocessed) input: identical
	// pixel multisets.
	input, target := pair(t, 64)
	res, err := Generate(input, target, Options{TilesPerSide: 8})
	if err != nil {
		t.Fatal(err)
	}
	hm := hist.Of(res.Input)
	hr := hist.Of(res.Mosaic)
	if hm != hr {
		t.Error("mosaic pixel multiset differs from preprocessed input")
	}
}

func TestOptimizationBeatsApproximationBeatsBaselines(t *testing.T) {
	input, target := pair(t, 128)
	errors := map[Algorithm]int64{}
	dev := cuda.New(4)
	for _, algo := range Algorithms() {
		res, err := Generate(input, target, Options{TilesPerSide: 8, Algorithm: algo, Device: dev})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		errors[algo] = res.TotalError
	}
	if errors[Optimization] > errors[Approximation] {
		t.Errorf("optimization %d worse than approximation %d", errors[Optimization], errors[Approximation])
	}
	if errors[Optimization] > errors[ParallelApproximation] {
		t.Errorf("optimization %d worse than parallel approximation %d", errors[Optimization], errors[ParallelApproximation])
	}
	if errors[Approximation] > errors[GreedyBaseline] {
		t.Errorf("approximation %d worse than greedy %d", errors[Approximation], errors[GreedyBaseline])
	}
	if errors[Approximation] >= errors[IdentityBaseline] {
		t.Errorf("approximation %d did not improve on identity %d", errors[Approximation], errors[IdentityBaseline])
	}
}

func TestAllExactSolversAgree(t *testing.T) {
	input, target := pair(t, 64)
	var want int64 = -1
	for _, solver := range []assign.Algorithm{assign.AlgoJV, assign.AlgoHungarian, assign.AlgoAuction} {
		res, err := Generate(input, target, Options{TilesPerSide: 8, Algorithm: Optimization, Solver: solver})
		if err != nil {
			t.Fatalf("%s: %v", solver, err)
		}
		if want < 0 {
			want = res.TotalError
		} else if res.TotalError != want {
			t.Errorf("%s: error %d, others %d", solver, res.TotalError, want)
		}
	}
}

func TestHistogramMatchImprovesMosaic(t *testing.T) {
	// §II: matching the input's distribution to the target's should lower
	// the achievable error for distribution-mismatched pairs.
	input := synth.MustGenerate(synth.Tiffany, 128) // high-key
	target := synth.MustGenerate(synth.Sailboat, 128)
	with, err := Generate(input, target, Options{TilesPerSide: 16})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Generate(input, target, Options{TilesPerSide: 16, NoHistogramMatch: true})
	if err != nil {
		t.Fatal(err)
	}
	if with.TotalError >= without.TotalError {
		t.Errorf("histogram matching did not help: with %d, without %d", with.TotalError, without.TotalError)
	}
}

func TestDeviceAndSerialPipelinesAgree(t *testing.T) {
	// Moving Step 2 to the device must not change the resulting mosaic
	// (same matrix, same deterministic search).
	input, target := pair(t, 64)
	cpu, err := Generate(input, target, Options{TilesPerSide: 8})
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := Generate(input, target, Options{TilesPerSide: 8, Device: cuda.New(4)})
	if err != nil {
		t.Fatal(err)
	}
	if !cpu.Mosaic.Equal(gpu.Mosaic) {
		t.Error("device pipeline produced a different mosaic")
	}
	if cpu.TotalError != gpu.TotalError {
		t.Errorf("errors differ: %d vs %d", cpu.TotalError, gpu.TotalError)
	}
}

func TestParallelApproximationWithPrecomputedColoring(t *testing.T) {
	input, target := pair(t, 64)
	dev := cuda.New(4)
	coloring := edgecolor.Complete(64)
	res, err := Generate(input, target, Options{
		TilesPerSide: 8, Algorithm: ParallelApproximation,
		Device: dev, Coloring: coloring,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Assignment.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTileSizeAndTilesPerSideEquivalent(t *testing.T) {
	input, target := pair(t, 64)
	a, err := Generate(input, target, Options{TilesPerSide: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(input, target, Options{TileSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Mosaic.Equal(b.Mosaic) {
		t.Error("TilesPerSide=8 and TileSize=8 disagree on a 64px image")
	}
}

func TestOptionValidation(t *testing.T) {
	input, target := pair(t, 64)
	cases := []struct {
		name string
		in   *imgutil.Gray
		tgt  *imgutil.Gray
		opts Options
	}{
		{"no-tiling", input, target, Options{}},
		{"both-tiling", input, target, Options{TilesPerSide: 8, TileSize: 8}},
		{"indivisible", input, target, Options{TilesPerSide: 7}},
		{"bad-algorithm", input, target, Options{TilesPerSide: 8, Algorithm: "nope"}},
		{"bad-solver", input, target, Options{TilesPerSide: 8, Algorithm: Optimization, Solver: "nope"}},
		{"bad-metric", input, target, Options{TilesPerSide: 8, Metric: metric.Metric(7)}},
		{"parallel-without-device", input, target, Options{TilesPerSide: 8, Algorithm: ParallelApproximation}},
		{"non-square-input", imgutil.NewGray(64, 32), target, Options{TilesPerSide: 8}},
		{"non-square-target", input, imgutil.NewGray(64, 32), Options{TilesPerSide: 8}},
		{"size-mismatch", imgutil.NewGray(32, 32), target, Options{TilesPerSide: 8}},
	}
	for _, tc := range cases {
		if _, err := Generate(tc.in, tc.tgt, tc.opts); err == nil {
			t.Errorf("%s: Generate accepted invalid options", tc.name)
		}
	}
}

func TestStartOverride(t *testing.T) {
	input, target := pair(t, 64)
	start := perm.Random(64, 42)
	res, err := Generate(input, target, Options{TilesPerSide: 8, Algorithm: IdentityBaseline, Start: start})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Assignment.Equal(start) {
		t.Error("IdentityBaseline ignored the Start override")
	}
}

func TestParseAlgorithm(t *testing.T) {
	a, err := ParseAlgorithm("optimization")
	if err != nil || a != Optimization {
		t.Errorf("ParseAlgorithm(optimization) = %q, %v", a, err)
	}
	if _, err := ParseAlgorithm("magic"); err == nil {
		t.Error("accepted unknown algorithm")
	}
}

func TestTimingPopulated(t *testing.T) {
	input, target := pair(t, 128)
	res, err := Generate(input, target, Options{TilesPerSide: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Timing.CostMatrix <= 0 || res.Timing.Rearrange <= 0 {
		t.Errorf("timings not recorded: %+v", res.Timing)
	}
	if res.Timing.Total() != res.Timing.CostMatrix+res.Timing.Rearrange {
		t.Error("Total() is not CostMatrix + Rearrange")
	}
}

func TestRearrangeStandalone(t *testing.T) {
	input, target := pair(t, 64)
	inStore, _ := tilestore.FromImage(input, 8)
	tgtStore, _ := tilestore.FromImage(target, 8)
	costs, err := metric.BuildStoreBlocked(inStore, tgtStore, metric.L1)
	if err != nil {
		t.Fatal(err)
	}
	pOpt, _, err := Rearrange(costs, Options{Algorithm: Optimization})
	if err != nil {
		t.Fatal(err)
	}
	pApp, _, err := Rearrange(costs, Options{}) // defaults to approximation
	if err != nil {
		t.Fatal(err)
	}
	if costs.Total(pOpt) > costs.Total(pApp) {
		t.Error("optimization worse than approximation on the same matrix")
	}
	if _, _, err := Rearrange(costs, Options{Algorithm: ParallelApproximation}); err == nil {
		t.Error("Rearrange allowed parallel approximation without a device")
	}
	if _, _, err := Rearrange(costs, Options{Algorithm: Optimization, Solver: "nope"}); err == nil {
		t.Error("Rearrange accepted an unknown solver")
	}
}

func TestGenerateRGBEndToEnd(t *testing.T) {
	in, err := synth.GenerateRGB(synth.Peppers, 64)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := synth.GenerateRGB(synth.Barbara, 64)
	if err != nil {
		t.Fatal(err)
	}
	res, err := GenerateRGB(in, tgt, Options{TilesPerSide: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mosaic.W != 64 {
		t.Fatalf("geometry %d", res.Mosaic.W)
	}
	// Reported error equals the image-level color error.
	imgErr, err := res.Mosaic.AbsDiffSum(tgt)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalError != imgErr {
		t.Errorf("TotalError %d != image error %d", res.TotalError, imgErr)
	}
	// Optimization beats approximation in color too.
	opt, err := GenerateRGB(in, tgt, Options{TilesPerSide: 8, Algorithm: Optimization})
	if err != nil {
		t.Fatal(err)
	}
	if opt.TotalError > res.TotalError {
		t.Error("color optimization worse than approximation")
	}
}

func TestGenerateRGBValidation(t *testing.T) {
	in, _ := synth.GenerateRGB(synth.Peppers, 64)
	if _, err := GenerateRGB(in, imgutil.NewRGB(32, 32), Options{TilesPerSide: 8}); err == nil {
		t.Error("accepted mismatched color sizes")
	}
	if _, err := GenerateRGB(imgutil.NewRGB(64, 32), in, Options{TilesPerSide: 8}); err == nil {
		t.Error("accepted non-square color input")
	}
}

func TestGenerateRGBDeviceAgrees(t *testing.T) {
	in, _ := synth.GenerateRGB(synth.Peppers, 64)
	tgt, _ := synth.GenerateRGB(synth.Barbara, 64)
	cpu, err := GenerateRGB(in, tgt, Options{TilesPerSide: 8})
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := GenerateRGB(in, tgt, Options{TilesPerSide: 8, Device: cuda.New(3)})
	if err != nil {
		t.Fatal(err)
	}
	if !cpu.Mosaic.Equal(gpu.Mosaic) {
		t.Error("color device pipeline differs from CPU")
	}
}

func BenchmarkGenerateApprox256S256(b *testing.B) {
	input, target := pair(b, 256)
	opts := Options{TilesPerSide: 16}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(input, target, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateOptimization256S256(b *testing.B) {
	input, target := pair(b, 256)
	opts := Options{TilesPerSide: 16, Algorithm: Optimization}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(input, target, opts); err != nil {
			b.Fatal(err)
		}
	}
}
