package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/assign"
	"repro/internal/cuda"
	"repro/internal/synth"
)

// Golden gates for the two Step-3 methods beside Algorithm 1: Algorithm 2
// (the edge-coloring-scheduled parallel search) and the exact optimization
// through JV, each on the fig8 pairs at S = 16² and S = 32². Algorithm 2
// runs on a device and, through the resilient path with no device, as the
// host sweep of every class; both must give the same mosaic. As with the
// other goldens, a changed hash is an output change of the whole pipeline.

// step3Sizes are the (image side, tiles per side) shapes of the Step-3
// goldens: S = 16² and S = 32².
var step3Sizes = []struct{ n, tiles int }{{128, 16}, {256, 32}}

func TestGoldenParallel(t *testing.T) {
	want := map[string]string{
		"fig8-airplane-to-lena/S256":    "a17735c4d06992cd841d793abb89deacff294fbdd8cb4ef86c74c83d16ba4a39",
		"fig8-airplane-to-lena/S1024":   "20f1fd1ea08ef5657b6a2d9f2452d10f17228c0f95872b87bb4b4b8a3c5e193b",
		"fig8-peppers-to-barbara/S256":  "7c719f2a9caaddaaeeea9060af92127ab0ae36606f2b0424b25b3afc9e649a80",
		"fig8-peppers-to-barbara/S1024": "b082639a0278c9629258ebd08c7adfc11cf292e4e77b7fb710519c76cbeb00b9",
	}
	for _, sc := range goldenScenes {
		for _, sz := range step3Sizes {
			name := fmt.Sprintf("%s/S%d", sc.name, sz.tiles*sz.tiles)
			input := synth.MustGenerate(sc.in, sz.n)
			target := synth.MustGenerate(sc.tgt, sz.n)
			for _, run := range []struct {
				name string
				opts Options
			}{
				{"device", Options{Device: cuda.New(2)}},
				{"host-resilient", Options{Resilience: &Resilience{}}},
			} {
				opts := run.opts
				opts.TilesPerSide, opts.Algorithm = sz.tiles, ParallelApproximation
				res, err := GenerateContext(context.Background(), input, target, opts)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, run.name, err)
				}
				if got := pixHash(res.Mosaic.Pix); got != want[name] {
					t.Errorf("%s/%s: parallel mosaic hash %s, want %s", name, run.name, got, want[name])
				}
			}
		}
	}
}

func TestGoldenOptimizationJV(t *testing.T) {
	want := map[string]string{
		"fig8-airplane-to-lena/S256":    "f923062ba1c53248d3680a26756e076d66fb96d75d35874c7104f39d7e077594",
		"fig8-airplane-to-lena/S1024":   "80cbefb09f9285dacf9a6c5e0d9017162ffaa41aeef4ec5ae30fffe80fb6dc15",
		"fig8-peppers-to-barbara/S256":  "93e9b9100e0589810d79876171bc7678238055ef7562dab39bd327a3a323b8dd",
		"fig8-peppers-to-barbara/S1024": "16a585abb9b9615f95e1bf380d33d6379d10f20a330fa2a1a0267fc4f3be587a",
	}
	for _, sc := range goldenScenes {
		for _, sz := range step3Sizes {
			name := fmt.Sprintf("%s/S%d", sc.name, sz.tiles*sz.tiles)
			input := synth.MustGenerate(sc.in, sz.n)
			target := synth.MustGenerate(sc.tgt, sz.n)
			opts := Options{TilesPerSide: sz.tiles, Algorithm: Optimization, Solver: assign.AlgoJV, Device: cuda.New(2)}
			res, err := GenerateContext(context.Background(), input, target, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := pixHash(res.Mosaic.Pix); got != want[name] {
				t.Errorf("%s: optimization mosaic hash %s, want %s", name, got, want[name])
			}
		}
	}
}
