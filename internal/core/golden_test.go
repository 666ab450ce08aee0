package core

import (
	"context"
	"testing"

	"repro/internal/synth"
)

// Golden end-to-end gates: two gallery scenes (the fig8 pairs) run through
// the full pipeline on the host and on a device, and the SHA-256 of the
// mosaic's pixel buffer must match a pinned constant. The pipeline is pure
// integer arithmetic over deterministic synth scenes, so the hashes are
// platform-independent; hashing pixels rather than encoded PNG bytes keeps
// the gate independent of PNG-encoder versions. Any layout bug that slips
// past the unit oracles — a padding byte leaking into a tile, a store gather
// off by a row — lands here as a visible hash change.
//
// If a hash changes, that is an output change of the whole pipeline:
// understand it before repinning (see DESIGN.md, "Golden outputs").
var goldenScenes = []struct {
	name    string
	in, tgt synth.Scene
	hash    string // SHA-256 of the mosaic pixel buffer, identical on host and device
}{
	{"fig8-airplane-to-lena", synth.Airplane, synth.Lena,
		"ef07e7c9549686c4d37ecb7db4ee1561a5606f4a596447ceb47c5b0cec9ea2ca"},
	{"fig8-peppers-to-barbara", synth.Peppers, synth.Barbara,
		"84cc2c34d17537531727a2e63813048cd226d50d3e73289f67e0f31e3ec963e9"},
}

func TestGoldenGalleryScenes(t *testing.T) {
	for _, sc := range goldenScenes {
		input := synth.MustGenerate(sc.in, 128)
		target := synth.MustGenerate(sc.tgt, 128)
		for _, tg := range goldenTargets {
			opts := Options{TilesPerSide: 16, Algorithm: Approximation, Device: tg.dev()}
			res, err := GenerateContext(context.Background(), input, target, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", sc.name, tg.name, err)
			}
			if got := pixHash(res.Mosaic.Pix); got != sc.hash {
				t.Errorf("%s/%s: mosaic hash %s, want %s", sc.name, tg.name, got, sc.hash)
			}
		}
	}
}
