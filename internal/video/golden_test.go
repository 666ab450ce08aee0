package video

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/cuda"
	"repro/internal/trace"
)

// TestGoldenVideoPan pins a 3-frame lena-over-sailboat pan (128² frames,
// S = 16²) frame by frame: the mosaic's SHA-256, Eq. (2) TotalError, the
// local-search pass count and the per-frame kernel launch/block counters.
// The host stream runs Algorithm 1, the device stream Algorithm 2, both
// warm-started from the previous frame, so each target has its own pins.
func TestGoldenVideoPan(t *testing.T) {
	type frame struct {
		hash             string
		totalError       int64
		passes           int
		launches, blocks int64
	}
	for _, tc := range []struct {
		name   string
		dev    func() *cuda.Device
		frames []frame
	}{
		{"host", func() *cuda.Device { return nil }, []frame{
			{"190aa3e7e660f485e22df80d437f74e87b14c8e3f115009c8345ba0e6ee3dfe1", 123474, 8, 0, 0},
			{"6c49837de56703310187d2f8bb6b573f7ee6eb8f22b7302e064a8268bbbaff16", 142640, 6, 0, 0},
			{"b14633a4cc715b50e1c71fd08174838f562488e00907dd10bbe89dc4f2ca909b", 125723, 6, 0, 0},
		}},
		{"device", func() *cuda.Device { return cuda.New(0) }, []frame{
			{"ae5246b294f53d66f96bfe6ba9171b53ba9cca27a32c69488af7a1bd55abe1a7", 123460, 5, 1276, 1531},
			{"4999a372c3bc606eb3fdcde2e936397a306cb6aa8f6e2dde55fe5e33d8e398ad", 142090, 6, 1531, 1786},
			{"99b0eb10ad681788169a43b17831e6bc184bf3e6e637430d902243dbe5639e54", 125345, 5, 1276, 1531},
		}},
	} {
		input, targets := stream(t, 128, 3)
		seq, err := NewSequencer(input, Config{TilesPerSide: 16, Device: tc.dev()})
		if err != nil {
			t.Fatal(err)
		}
		for i, tgt := range targets {
			fr, err := seq.Next(tgt)
			if err != nil {
				t.Fatalf("%s frame %d: %v", tc.name, i, err)
			}
			sum := sha256.Sum256(fr.Mosaic.Pix)
			got := frame{
				hash:       hex.EncodeToString(sum[:]),
				totalError: fr.TotalError,
				passes:     fr.Passes,
				launches:   fr.Stats.Counters[trace.CounterKernelLaunches],
				blocks:     fr.Stats.Counters[trace.CounterKernelBlocks],
			}
			if got != tc.frames[i] {
				t.Errorf("%s frame %d: got %+v, want %+v", tc.name, i, got, tc.frames[i])
			}
		}
	}
}
