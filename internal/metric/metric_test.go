package metric

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/cuda"
	"repro/internal/imgutil"
	"repro/internal/perm"
	"repro/internal/synth"
	"repro/internal/tile"
	"repro/internal/tilestore"
)

func grids(t testing.TB, n, m int) (*tile.Grid, *tile.Grid) {
	t.Helper()
	in, err := tile.NewGrid(synth.MustGenerate(synth.Lena, n), m)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := tile.NewGrid(synth.MustGenerate(synth.Sailboat, n), m)
	if err != nil {
		t.Fatal(err)
	}
	return in, tg
}

func TestTileErrorL1Known(t *testing.T) {
	a := []uint8{10, 20, 30, 40}
	b := []uint8{12, 18, 30, 45}
	if got := TileError(a, b, L1); got != 9 {
		t.Errorf("L1 = %d, want 9", got)
	}
	if got := TileError(a, b, L2); got != 4+4+0+25 {
		t.Errorf("L2 = %d, want 33", got)
	}
}

func TestTileErrorPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on mismatched tiles")
		}
	}()
	TileError([]uint8{1}, []uint8{1, 2}, L1)
}

func TestTileErrorProperties(t *testing.T) {
	// Symmetry, zero-on-self, non-negativity, L1 triangle inequality.
	f := func(s1, s2, s3 uint64) bool {
		a := randTile(s1, 16)
		b := randTile(s2, 16)
		c := randTile(s3, 16)
		ab := TileError(a, b, L1)
		if ab != TileError(b, a, L1) || ab < 0 {
			return false
		}
		if TileError(a, a, L1) != 0 || TileError(a, a, L2) != 0 {
			return false
		}
		return int64(TileError(a, c, L1)) <= int64(ab)+int64(TileError(b, c, L1))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func randTile(seed uint64, n int) []uint8 {
	out := make([]uint8, n)
	s := seed | 1
	for i := range out {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		out[i] = uint8(s >> 32)
	}
	return out
}

func TestBuildSerialMatchesDirectComputation(t *testing.T) {
	// The host builder is the paper's serial CPU computation of Step 2.
	in, tg := grids(t, 32, 8)
	inS, tgS := storesOf(in, tg)
	m, err := BuildStoreBlocked(inS, tgS, L1)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check a handful of entries against whole-tile AbsDiffSum.
	for _, uv := range [][2]int{{0, 0}, {3, 7}, {15, 2}, {9, 9}} {
		u, v := uv[0], uv[1]
		tu := in.Tile(u)
		tv := tg.Tile(v)
		want, err := tu.AbsDiffSum(tv)
		if err != nil {
			t.Fatal(err)
		}
		if int64(m.At(u, v)) != want {
			t.Errorf("At(%d, %d) = %d, want %d", u, v, m.At(u, v), want)
		}
	}
}

func TestBuildersAgree(t *testing.T) {
	// The host loop and the device kernel (both launch paths) must produce
	// the oracle's matrix, for both metrics and several worker counts.
	in, tg := grids(t, 64, 8)
	inS, tgS := storesOf(in, tg)
	for _, met := range []Metric{L1, L2} {
		want := oracleMatrix(in, tg, met)
		got, err := BuildStoreBlocked(inS, tgS, met)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("BuildStoreBlocked(%v) differs from the oracle", met)
		}
		for _, workers := range []int{1, 3, 8} {
			dev := cuda.New(workers)
			got, err := BuildStoreDevice(dev, inS, tgS, met)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Errorf("BuildStoreDevice(workers=%d, %v) differs from the oracle", workers, met)
			}
			got, err = BuildStoreDeviceContext(context.Background(), dev, inS, tgS, met)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Errorf("BuildStoreDeviceContext(workers=%d, %v) differs from the oracle", workers, met)
			}
		}
	}
}

func TestBuildRejectsMismatchedGrids(t *testing.T) {
	in, _ := grids(t, 32, 8)
	_, tg := grids(t, 32, 4)
	inS, tgS := storesOf(in, tg)
	if _, err := BuildStoreBlocked(inS, tgS, L1); err == nil {
		t.Error("accepted mismatched tile sizes")
	}
	if _, err := BuildStoreDevice(cuda.New(1), inS, tgS, L1); err == nil {
		t.Error("device builder accepted mismatched tile sizes")
	}
	rgb, err := tilestore.FromRGB(imgutil.RGBFromGray(in.Img), 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildStoreBlocked(inS, rgb, L1); err == nil {
		t.Error("accepted a grayscale store against a colour store")
	}
}

func TestBuildRejectsInvalidMetric(t *testing.T) {
	inS, tgS := storesOf(grids(t, 32, 8))
	if _, err := BuildStoreBlocked(inS, tgS, Metric(9)); err == nil {
		t.Error("accepted invalid metric")
	}
	if _, err := BuildStoreDevice(cuda.New(1), inS, tgS, Metric(9)); err == nil {
		t.Error("device builder accepted invalid metric")
	}
}

func TestBuildRejectsOversizedTiles(t *testing.T) {
	big := imgutil.NewGray(364, 364)
	in, err := tilestore.FromImage(big, 182) // > MaxTileSide
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildStoreBlocked(in, in, L1); err == nil {
		t.Error("accepted tile side beyond overflow bound")
	}
}

func TestMatrixTotalIdentityVsPermuted(t *testing.T) {
	inS, tgS := storesOf(grids(t, 32, 8))
	m, err := BuildStoreBlocked(inS, tgS, L1)
	if err != nil {
		t.Fatal(err)
	}
	id := m.Total(perm.Identity(m.S))
	var want int64
	for v := 0; v < m.S; v++ {
		want += int64(m.At(v, v))
	}
	if id != want {
		t.Errorf("Total(identity) = %d, want trace %d", id, want)
	}
}

func TestTotalEqualsImageLevelError(t *testing.T) {
	// Eq. (2) on the matrix must equal the whole-image AbsDiffSum of the
	// assembled mosaic versus the target — the invariant connecting the
	// cost matrix to what the viewer sees.
	in, tg := grids(t, 64, 8)
	inS, tgS := storesOf(in, tg)
	m, err := BuildStoreBlocked(inS, tgS, L1)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64) bool {
		p := perm.Random(m.S, seed)
		mosaic, err := in.Assemble(p)
		if err != nil {
			return false
		}
		imgErr, err := mosaic.AbsDiffSum(tg.Img)
		if err != nil {
			return false
		}
		return m.Total(p) == imgErr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestIdenticalImagesGiveZeroDiagonal(t *testing.T) {
	img := synth.MustGenerate(synth.Plasma, 32)
	in, _ := tile.NewGrid(img, 8)
	tg, _ := tile.NewGrid(img.Clone(), 8)
	inS, tgS := storesOf(in, tg)
	m, err := BuildStoreBlocked(inS, tgS, L1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.S; i++ {
		if m.At(i, i) != 0 {
			t.Errorf("E(I_%d, T_%d) = %d on identical images", i, i, m.At(i, i))
		}
	}
	if m.Total(perm.Identity(m.S)) != 0 {
		t.Error("identity total nonzero on identical images")
	}
}

func TestMetricStringAndValid(t *testing.T) {
	if L1.String() != "L1" || L2.String() != "L2" {
		t.Error("metric names wrong")
	}
	if !L1.Valid() || !L2.Valid() || Metric(5).Valid() {
		t.Error("Valid() wrong")
	}
}

func TestMatrixAccessors(t *testing.T) {
	m := NewMatrix(3)
	m.Set(1, 2, 42)
	if m.At(1, 2) != 42 {
		t.Error("Set/At broken")
	}
	if len(m.Row(1)) != 3 || m.Row(1)[2] != 42 {
		t.Error("Row broken")
	}
	if m.Equal(NewMatrix(4)) {
		t.Error("matrices of different S reported equal")
	}
}

func BenchmarkBuildStoreBlocked512S1024(b *testing.B) {
	inS, tgS := storesOf(grids(b, 512, 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildStoreBlocked(inS, tgS, L1); err != nil {
			b.Fatal(err)
		}
	}
}
