package metric

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/cuda"
)

// TestTileErrorSWARMatchesScalarAllLengths differentially checks the SWAR
// kernels against the byte-at-a-time oracle over every length around the
// word, unroll and flush boundaries, with adversarial byte patterns mixed in.
func TestTileErrorSWARMatchesScalarAllLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lengths := []int{0, 1, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 63, 64, 100,
		255, 256, 257, 8*flushWords - 8, 8 * flushWords, 8*flushWords + 8, 8*flushWords + 100}
	for _, n := range lengths {
		for trial := 0; trial < 8; trial++ {
			a := make([]uint8, n)
			b := make([]uint8, n)
			switch trial {
			case 0: // all-extreme: every byte saturates the lane sum
				for i := range a {
					a[i], b[i] = 255, 0
				}
			case 1:
				for i := range a {
					a[i], b[i] = 0, 255
				}
			case 2: // equal inputs: zero
				rng.Read(a)
				copy(b, a)
			default:
				rng.Read(a)
				rng.Read(b)
			}
			if got, want := tileErrorL1SWAR(a, b), int64(TileErrorScalar(a, b, L1)); got != want {
				t.Fatalf("L1 n=%d trial=%d: SWAR %d != scalar %d", n, trial, got, want)
			}
			if got, want := tileErrorL2SWAR(a, b), int64(TileErrorScalar(a, b, L2)); got != want {
				t.Fatalf("L2 n=%d trial=%d: SWAR %d != scalar %d", n, trial, got, want)
			}
			if got, want := TileError(a, b, L1), TileErrorScalar(a, b, L1); got != want {
				t.Fatalf("TileError L1 n=%d trial=%d: %d != %d", n, trial, got, want)
			}
			if got, want := TileError(a, b, L2), TileErrorScalar(a, b, L2); got != want {
				t.Fatalf("TileError L2 n=%d trial=%d: %d != %d", n, trial, got, want)
			}
		}
	}
}

// FuzzTileErrorSWAR is the differential fuzz target of the vectorization:
// on arbitrary bytes and lengths the word-at-a-time accumulators must be
// bit-identical to the scalar transcription of Eq. (1), for both metrics.
func FuzzTileErrorSWAR(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0xFF}, []byte{0x00})
	f.Add(make([]byte, 256), make([]byte, 300))
	seed := make([]byte, 8*flushWords+17)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed, append([]byte{1, 2, 3}, seed...))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		// The kernels require equal lengths (TileError panics otherwise, by
		// contract); trim to the shorter input.
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]
		if got, want := tileErrorL1SWAR(a, b), int64(TileErrorScalar(a, b, L1)); got != want {
			t.Fatalf("L1 n=%d: SWAR %d != scalar %d", n, got, want)
		}
		if got, want := tileErrorL2SWAR(a, b), int64(TileErrorScalar(a, b, L2)); got != want {
			t.Fatalf("L2 n=%d: SWAR %d != scalar %d", n, got, want)
		}
	})
}

// TestBuildersEquivalent checks the Step-2 invariant end to end: every
// builder — the host loop, the device kernel through both launch paths, and
// the BuildStore dispatch with and without a device — produces the oracle's
// matrix, for both metrics, on grids sized to exercise panel remainders.
func TestBuildersEquivalent(t *testing.T) {
	for _, tc := range []struct{ n, tiles int }{{64, 8}, {60, 6}, {96, 12}} {
		in, tg := grids(t, tc.n, tc.tiles)
		inS, tgS := storesOf(in, tg)
		dev := cuda.New(3)
		for _, met := range []Metric{L1, L2} {
			want := oracleMatrix(in, tg, met)
			builds := map[string]func() (*Matrix, error){
				"blocked": func() (*Matrix, error) { return BuildStoreBlocked(inS, tgS, met) },
				"device":  func() (*Matrix, error) { return BuildStoreDevice(dev, inS, tgS, met) },
				"device-context": func() (*Matrix, error) {
					return BuildStoreDeviceContext(context.Background(), dev, inS, tgS, met)
				},
				"auto-host":   func() (*Matrix, error) { return BuildStore(nil, inS, tgS, met, BuilderAuto) },
				"auto-device": func() (*Matrix, error) { return BuildStore(dev, inS, tgS, met, BuilderAuto) },
			}
			for name, build := range builds {
				got, err := build()
				if err != nil {
					t.Fatalf("%s (%v): %v", name, met, err)
				}
				if !got.Equal(want) {
					t.Errorf("%s (%v, %d/%d) differs from the oracle", name, met, tc.n, tc.tiles)
				}
			}
		}
	}
}

// TestBuildDispatcherValidation covers BuildStore's dispatch: the execution
// target follows from the device argument alone, and BuilderAuto is the
// only builder value.
func TestBuildDispatcherValidation(t *testing.T) {
	inS, tgS := storesOf(grids(t, 32, 4))
	if _, err := BuildStore(nil, inS, tgS, L1, Builder("serial")); err == nil {
		t.Error("BuildStore accepted a builder other than BuilderAuto")
	}
	if _, err := BuildStore(nil, inS, tgS, L1, BuilderAuto); err != nil {
		t.Errorf("host build: %v", err)
	}
	dev := cuda.New(2)
	if _, err := BuildStore(dev, inS, tgS, L1, BuilderAuto); err != nil {
		t.Fatalf("device build: %v", err)
	}
	if m := dev.Metrics(); m.Launches != 1 || m.Blocks != int64(inS.S()) {
		t.Errorf("device build ran %d launches / %d blocks, want 1 / %d", m.Launches, m.Blocks, inS.S())
	}
}

// TestBlockSpan pins the panel-sizing clamps.
func TestBlockSpan(t *testing.T) {
	for _, tc := range []struct{ budget, m2, s, want int }{
		{128 << 10, 256, 1024, 512}, // pinned workload: 512-tile target panels
		{16 << 10, 256, 1024, 64},
		{1024, 32761, 100, 1},  // 181² tiles: degrade to one tile per panel
		{1 << 20, 256, 16, 16}, // budget beyond S: whole grid in one panel
	} {
		if got := blockSpan(tc.budget, tc.m2, tc.s); got != tc.want {
			t.Errorf("blockSpan(%d, %d, %d) = %d, want %d", tc.budget, tc.m2, tc.s, got, tc.want)
		}
	}
}
