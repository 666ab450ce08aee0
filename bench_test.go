// Benchmarks regenerating the paper's evaluation, one benchmark family per
// table/figure (run `go test -bench . -benchmem`). They use the Lena→
// Sailboat pair at 512×512 — the paper's headline configuration — with the
// larger image sizes behind cmd/mosaicbench, which sweeps the full grid of
// Tables II–IV and also prints the tables in the paper's layout.
//
//	Table I   → BenchmarkTable1_*  (quality: errors reported via b.ReportMetric)
//	Table II  → BenchmarkTable2_*  (Step-2 error matrix, CPU vs device)
//	Table III → BenchmarkTable3_*  (Step-3 rearrangement, all three engines)
//	Table IV  → BenchmarkTable4_*  (end-to-end pipelines)
//	Fig. 7    → BenchmarkFigure7_* (mosaic generation across S)
//	Fig. 8    → BenchmarkFigure8_* (the other scene pairs)
package mosaic_test

import (
	"fmt"
	"testing"

	mosaic "repro"
	"repro/internal/assign"
	"repro/internal/cuda"
	"repro/internal/edgecolor"
	"repro/internal/hist"
	"repro/internal/localsearch"
	"repro/internal/metric"
	"repro/internal/perm"
	"repro/internal/synth"
	"repro/internal/tilestore"
)

// benchStores prepares histogram-matched input and target tile stores.
func benchStores(b *testing.B, in, tgt synth.Scene, n, tiles int) (*tilestore.Store, *tilestore.Store) {
	b.Helper()
	input := synth.MustGenerate(in, n)
	target := synth.MustGenerate(tgt, n)
	matched, err := hist.Match(input, target)
	if err != nil {
		b.Fatal(err)
	}
	ig, err := tilestore.FromImage(matched, n/tiles)
	if err != nil {
		b.Fatal(err)
	}
	tg, err := tilestore.FromImage(target, n/tiles)
	if err != nil {
		b.Fatal(err)
	}
	return ig, tg
}

func benchCosts(b *testing.B, n, tiles int) *metric.Matrix {
	b.Helper()
	ig, tg := benchStores(b, synth.Lena, synth.Sailboat, n, tiles)
	m, err := metric.BuildStoreBlocked(ig, tg, metric.L1)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// tileCounts is the paper's S sweep (tiles per side).
var tileCounts = []int{16, 32, 64}

// BenchmarkTable1_TotalError reports the Table I quality numbers: it runs
// each rearrangement engine once per iteration and reports the achieved
// total error as a custom metric, so `-bench Table1` prints the paper's
// error comparison alongside the times.
func BenchmarkTable1_TotalError(b *testing.B) {
	for _, tiles := range tileCounts {
		costs := benchCosts(b, 512, tiles)
		s := tiles * tiles
		coloring := edgecolor.Complete(s)
		dev := cuda.New(0)

		b.Run(fmt.Sprintf("S=%dx%d/optimization", tiles, tiles), func(b *testing.B) {
			var e int64
			for i := 0; i < b.N; i++ {
				p, err := assign.JV(s, costs.W)
				if err != nil {
					b.Fatal(err)
				}
				e = costs.Total(p)
			}
			b.ReportMetric(float64(e), "total-error")
		})
		b.Run(fmt.Sprintf("S=%dx%d/approx-cpu", tiles, tiles), func(b *testing.B) {
			var e int64
			for i := 0; i < b.N; i++ {
				p, _, err := localsearch.Serial(costs, perm.Identity(s), localsearch.Options{})
				if err != nil {
					b.Fatal(err)
				}
				e = costs.Total(p)
			}
			b.ReportMetric(float64(e), "total-error")
		})
		b.Run(fmt.Sprintf("S=%dx%d/approx-gpu", tiles, tiles), func(b *testing.B) {
			var e int64
			for i := 0; i < b.N; i++ {
				p, _, err := localsearch.Parallel(dev, costs, perm.Identity(s), coloring, localsearch.Options{})
				if err != nil {
					b.Fatal(err)
				}
				e = costs.Total(p)
			}
			b.ReportMetric(float64(e), "total-error")
		})
	}
}

// BenchmarkTable2_ErrorMatrix times Step 2 (the S×S tile-error matrix), the
// host loop versus the CUDA-shaped device kernel — Table II's two columns.
func BenchmarkTable2_ErrorMatrix(b *testing.B) {
	dev := cuda.New(0)
	for _, tiles := range tileCounts {
		ig, tg := benchStores(b, synth.Lena, synth.Sailboat, 512, tiles)
		b.Run(fmt.Sprintf("N=512/S=%dx%d/cpu", tiles, tiles), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := metric.BuildStoreBlocked(ig, tg, metric.L1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("N=512/S=%dx%d/gpu", tiles, tiles), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := metric.BuildStoreDevice(dev, ig, tg, metric.L1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// One larger size to expose the N-dependence of Table II.
	ig, tg := benchStores(b, synth.Lena, synth.Sailboat, 1024, 32)
	b.Run("N=1024/S=32x32/cpu", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := metric.BuildStoreBlocked(ig, tg, metric.L1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("N=1024/S=32x32/gpu", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := metric.BuildStoreDevice(dev, ig, tg, metric.L1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable3_Rearrange times Step 3 for the three engines of Table III:
// exact matching on the CPU, Algorithm 1, and Algorithm 2 on the device.
func BenchmarkTable3_Rearrange(b *testing.B) {
	dev := cuda.New(0)
	for _, tiles := range tileCounts {
		costs := benchCosts(b, 512, tiles)
		s := tiles * tiles
		coloring := edgecolor.Complete(s)
		b.Run(fmt.Sprintf("S=%dx%d/optimization-cpu", tiles, tiles), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := assign.JV(s, costs.W); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("S=%dx%d/approx-cpu", tiles, tiles), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := localsearch.Serial(costs, perm.Identity(s), localsearch.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("S=%dx%d/approx-gpu", tiles, tiles), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := localsearch.Parallel(dev, costs, perm.Identity(s), coloring, localsearch.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable4_EndToEnd times the four full pipelines of Table IV:
// optimization with and without the device-built matrix, approximation on
// CPU and fully on the device.
func BenchmarkTable4_EndToEnd(b *testing.B) {
	input := synth.MustGenerate(synth.Lena, 512)
	target := synth.MustGenerate(synth.Sailboat, 512)
	dev := cuda.New(0)
	for _, tiles := range []int{16, 32} { // 64² optimization moved to cmd/mosaicbench
		variants := []struct {
			name string
			opts mosaic.Options
		}{
			{"optimization-cpu", mosaic.Options{TilesPerSide: tiles, Algorithm: mosaic.Optimization}},
			{"optimization-cpu+gpu", mosaic.Options{TilesPerSide: tiles, Algorithm: mosaic.Optimization, Device: dev}},
			{"approx-cpu", mosaic.Options{TilesPerSide: tiles, Algorithm: mosaic.Approximation}},
			{"approx-gpu", mosaic.Options{TilesPerSide: tiles, Algorithm: mosaic.ParallelApproximation, Device: dev, Coloring: mosaic.NewColoring(tiles * tiles)}},
		}
		for _, v := range variants {
			b.Run(fmt.Sprintf("S=%dx%d/%s", tiles, tiles, v.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := mosaic.Generate(input, target, v.opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFigure7_Generation regenerates the Figure 7 panels (approximation
// engine across the three tile counts; the optimization panels are timed by
// Table3/Table4 above).
func BenchmarkFigure7_Generation(b *testing.B) {
	input := synth.MustGenerate(synth.Lena, 512)
	target := synth.MustGenerate(synth.Sailboat, 512)
	for _, tiles := range tileCounts {
		b.Run(fmt.Sprintf("S=%dx%d", tiles, tiles), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mosaic.Generate(input, target, mosaic.Options{TilesPerSide: tiles}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure8_Pairs regenerates the Figure 8 mosaics: the three
// remaining scene pairs at S = 32×32 with the optimization engine.
func BenchmarkFigure8_Pairs(b *testing.B) {
	pairs := []struct{ in, tgt synth.Scene }{
		{synth.Airplane, synth.Lena},
		{synth.Peppers, synth.Barbara},
		{synth.Tiffany, synth.Baboon},
	}
	for _, p := range pairs {
		input := synth.MustGenerate(p.in, 512)
		target := synth.MustGenerate(p.tgt, 512)
		b.Run(fmt.Sprintf("%s-to-%s", p.in, p.tgt), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mosaic.Generate(input, target, mosaic.Options{TilesPerSide: 32, Algorithm: mosaic.Optimization}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_Solvers compares the exact matchers on real tile
// matrices — the DESIGN.md solver ablation. The dedicated LAP solvers run
// at the paper's S = 32² scale; the general-graph blossom solver (the
// paper's actual algorithm family, far heavier constants) runs at S = 16².
func BenchmarkAblation_Solvers(b *testing.B) {
	costs := benchCosts(b, 512, 32)
	s := 32 * 32
	for name, solve := range map[string]assign.Func{
		"jv": assign.JV, "hungarian": assign.Hungarian, "auction": assign.Auction,
	} {
		b.Run(name+"/S=32x32", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := solve(s, costs.W); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	small := benchCosts(b, 512, 16)
	for name, solve := range map[string]assign.Func{
		"jv": assign.JV, "blossom": assign.Blossom,
	} {
		b.Run(name+"/S=16x16", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := solve(16*16, small.W); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_FirstVsBestImprovement quantifies why the paper's sweep
// applies swaps immediately (first improvement) instead of hunting the best
// swap per pass.
func BenchmarkAblation_FirstVsBestImprovement(b *testing.B) {
	costs := benchCosts(b, 256, 16)
	s := 16 * 16
	b.Run("first-improvement", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := localsearch.Serial(costs, perm.Identity(s), localsearch.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("best-improvement", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := localsearch.SerialBestImprovement(costs, perm.Identity(s), localsearch.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_Orientations measures the 8× Step-2 cost of the
// dihedral-orientation extension and reports the error improvement it buys.
func BenchmarkAblation_Orientations(b *testing.B) {
	input := synth.MustGenerate(synth.Lena, 256)
	target := synth.MustGenerate(synth.Sailboat, 256)
	for _, oriented := range []bool{false, true} {
		name := "upright"
		if oriented {
			name = "oriented"
		}
		b.Run(name, func(b *testing.B) {
			var e int64
			for i := 0; i < b.N; i++ {
				res, err := mosaic.Generate(input, target, mosaic.Options{TilesPerSide: 16, AllowOrientations: oriented})
				if err != nil {
					b.Fatal(err)
				}
				e = res.TotalError
			}
			b.ReportMetric(float64(e), "total-error")
		})
	}
}

// BenchmarkAblation_ProxyResolution sweeps the reduced-resolution matching
// shortcut: Step-2 cost falls with d² while the (exactly evaluated) error
// degrades gracefully.
func BenchmarkAblation_ProxyResolution(b *testing.B) {
	input := synth.MustGenerate(synth.Lena, 512)
	target := synth.MustGenerate(synth.Sailboat, 512)
	for _, d := range []int{0, 8, 4, 2} { // 0 = exact; tile side is 16
		name := fmt.Sprintf("d=%d", d)
		if d == 0 {
			name = "exact"
		}
		b.Run(name, func(b *testing.B) {
			var e int64
			for i := 0; i < b.N; i++ {
				res, err := mosaic.Generate(input, target, mosaic.Options{TilesPerSide: 32, ProxyResolution: d})
				if err != nil {
					b.Fatal(err)
				}
				e = res.TotalError
			}
			b.ReportMetric(float64(e), "total-error")
		})
	}
}

// BenchmarkAblation_Annealing compares the paper's local search with the
// annealing extension on quality-per-second.
func BenchmarkAblation_Annealing(b *testing.B) {
	costs := benchCosts(b, 256, 16)
	s := 16 * 16
	b.Run("algorithm1", func(b *testing.B) {
		var e int64
		for i := 0; i < b.N; i++ {
			p, _, err := localsearch.Serial(costs, perm.Identity(s), localsearch.Options{})
			if err != nil {
				b.Fatal(err)
			}
			e = costs.Total(p)
		}
		b.ReportMetric(float64(e), "total-error")
	})
	b.Run("anneal+polish", func(b *testing.B) {
		var e int64
		for i := 0; i < b.N; i++ {
			p, _, err := localsearch.AnnealThenPolish(costs, perm.Identity(s), localsearch.AnnealOptions{Seed: uint64(i)})
			if err != nil {
				b.Fatal(err)
			}
			e = costs.Total(p)
		}
		b.ReportMetric(float64(e), "total-error")
	})
}
