package core

import (
	"errors"
	"testing"

	"repro/internal/imgutil"
	"repro/internal/metric"
)

// FuzzGenerateOptions hardens the pipeline entry point against hostile
// configurations: fuzzed image geometry (zero, negative, non-square,
// mismatched buffer lengths) and fuzzed tile/metric/proxy parameters must
// either be rejected with ErrOptions or produce a valid permutation — never
// panic, and never return a Result alongside an error.
func FuzzGenerateOptions(f *testing.F) {
	f.Add(32, 32, 1024, 32, 32, 1024, 4, 0, 0, uint8(1), uint8(0)) // valid run
	f.Add(32, 32, 1024, 32, 32, 1024, 0, 8, 2, uint8(1), uint8(1)) // tile size + proxy
	f.Add(0, 0, 0, 32, 32, 1024, 4, 0, 0, uint8(0), uint8(0))      // empty input
	f.Add(-16, 16, 256, 16, 16, 256, 4, 0, 0, uint8(2), uint8(0))  // negative width
	f.Add(16, 24, 384, 16, 24, 384, 4, 0, 0, uint8(3), uint8(1))   // non-square
	f.Add(16, 16, 255, 16, 16, 256, 4, 0, 0, uint8(4), uint8(0))   // short buffer
	f.Add(16, 16, 256, 16, 16, 256, -3, 0, 0, uint8(1), uint8(0))  // negative tiles
	f.Add(16, 16, 256, 16, 16, 256, 5, 0, 0, uint8(1), uint8(0))   // indivisible tiles
	f.Add(16, 16, 256, 16, 16, 256, 4, 4, 0, uint8(1), uint8(0))   // both tile params
	f.Add(16, 16, 256, 16, 16, 256, 4, 0, -1, uint8(1), uint8(99)) // bad proxy + metric
	f.Add(16, 16, 256, 8, 8, 64, 4, 0, 0, uint8(5), uint8(0))      // size mismatch

	f.Fuzz(func(t *testing.T, iw, ih, ilen, tw, th, tlen, tiles, tileSize, proxy int, algo, met uint8) {
		// Cap buffers and dimensions: the target is crash-resistance of the
		// validation path, not generating enormous workloads.
		const maxLen = 1 << 12
		if ilen > maxLen || tlen > maxLen || ilen < 0 || tlen < 0 {
			t.Skip()
		}
		if iw > maxLen || ih > maxLen || tw > maxLen || th > maxLen {
			t.Skip()
		}
		build := func(w, h, n int) *imgutil.Gray {
			img := &imgutil.Gray{W: w, H: h, Pix: make([]uint8, n)}
			for i := range img.Pix {
				img.Pix[i] = uint8(i * 31)
			}
			return img
		}
		input := build(iw, ih, ilen)
		target := build(tw, th, tlen)

		algorithms := Algorithms()
		opts := Options{
			TilesPerSide:    tiles,
			TileSize:        tileSize,
			Metric:          metric.Metric(met % 3), // includes one invalid value
			ProxyResolution: proxy,
		}
		// Rotate through the serial algorithms; ParallelApproximation needs a
		// device, so substitute it with an unknown name to also exercise the
		// unknown-algorithm rejection.
		a := algorithms[int(algo)%len(algorithms)]
		if a == ParallelApproximation {
			a = Algorithm("no-such-algorithm")
		}
		opts.Algorithm = a

		res, err := Generate(input, target, opts)
		if err != nil {
			if res != nil {
				t.Fatal("Generate returned a Result alongside an error")
			}
			if !errors.Is(err, ErrOptions) {
				t.Fatalf("rejection %v does not wrap ErrOptions", err)
			}
			return
		}
		// Accepted: the inputs must have been genuinely well-formed…
		if iw <= 0 || ih <= 0 || iw != ih || ilen != iw*ih || tw != iw || th != ih || tlen != ilen {
			t.Fatalf("Generate accepted malformed geometry %dx%d/%d vs %dx%d/%d", iw, ih, ilen, tw, th, tlen)
		}
		// …and the result fully populated.
		if err := res.Assignment.Validate(); err != nil {
			t.Fatalf("accepted run produced invalid assignment: %v", err)
		}
		if res.Mosaic == nil || res.Mosaic.W != iw || res.Mosaic.H != ih {
			t.Fatal("accepted run produced a malformed mosaic")
		}
	})
}
