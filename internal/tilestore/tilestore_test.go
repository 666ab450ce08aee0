package tilestore

import (
	"bytes"
	"testing"

	"repro/internal/hist"
	"repro/internal/imgutil"
	"repro/internal/synth"
	"repro/internal/tile"
)

// scalarStats recomputes tile i's summary stats the naive way, straight from
// the grid crop — the oracle the fused gather must match.
func scalarStats(g *tile.Grid, i int) (sum int64, h [256]int64, thumb []uint8) {
	m := g.M
	td := ThumbSide
	if td > m {
		td = m
	}
	cellSum := make([]int64, td*td)
	cellCnt := make([]int64, td*td)
	for r := 0; r < m; r++ {
		row := g.Row(i, r)
		for x, p := range row {
			sum += int64(p)
			h[p]++
			c := (r*td/m)*td + x*td/m
			cellSum[c] += int64(p)
			cellCnt[c]++
		}
	}
	thumb = make([]uint8, td*td)
	for c := range thumb {
		thumb[c] = uint8(cellSum[c] / cellCnt[c])
	}
	return sum, h, thumb
}

func checkStoreAgainstGrid(t *testing.T, s *Store, g *tile.Grid) {
	t.Helper()
	if s.M != g.M || s.Cols != g.Cols || s.Rows != g.Rows {
		t.Fatalf("store geometry %dx%d M=%d, grid %dx%d M=%d", s.Cols, s.Rows, s.M, g.Cols, g.Rows, g.M)
	}
	if s.Stride%PadAlign != 0 || s.Stride < g.M*g.M {
		t.Fatalf("stride %d not a padded multiple of %d over %d", s.Stride, PadAlign, g.M*g.M)
	}
	m2 := g.M * g.M
	for i := 0; i < g.S(); i++ {
		// Pixels: block payload equals the crop, padding is zero.
		want := g.Tile(i).Pix
		if !bytes.Equal(s.Tile(i), want) {
			t.Fatalf("tile %d pixels differ from crop", i)
		}
		for _, p := range s.TilePadded(i)[m2:] {
			if p != 0 {
				t.Fatalf("tile %d has non-zero padding", i)
			}
		}
		// Stats: fused pass vs scalar recomputation.
		sum, h, thumb := scalarStats(g, i)
		if s.Sum[i] != sum {
			t.Fatalf("tile %d sum = %d, scalar %d", i, s.Sum[i], sum)
		}
		th := s.TileHist(i)
		for v := 0; v < 256; v++ {
			if int64(th[v]) != h[v] {
				t.Fatalf("tile %d hist[%d] = %d, scalar %d", i, v, th[v], h[v])
			}
		}
		if !bytes.Equal(s.TileThumb(i), thumb) {
			t.Fatalf("tile %d thumb = %v, scalar %v", i, s.TileThumb(i), thumb)
		}
	}
}

func TestFromGridMatchesScalarOracle(t *testing.T) {
	for _, m := range []int{1, 3, 4, 7, 16} {
		img := synth.MustGenerate(synth.Peppers, 112) // 112 divisible by 1,4,7,16; 112%3 != 0
		if 112%m != 0 {
			if _, err := FromImage(img, m); err == nil {
				t.Fatalf("FromImage accepted non-divisible tile side %d", m)
			}
			continue
		}
		g, err := tile.NewGrid(img, m)
		if err != nil {
			t.Fatal(err)
		}
		checkStoreAgainstGrid(t, FromGrid(g), g)
	}
}

func TestScatterRoundTrip(t *testing.T) {
	img := synth.MustGenerate(synth.Barbara, 96)
	s, err := FromImage(img, 8)
	if err != nil {
		t.Fatal(err)
	}
	back := s.Scatter()
	if back.W != img.W || back.H != img.H || !bytes.Equal(back.Pix, img.Pix) {
		t.Fatal("gather→store→scatter did not reconstruct the source image")
	}
}

func TestGlobalHistogramEqualsImageHistogram(t *testing.T) {
	img := synth.MustGenerate(synth.Lena, 128)
	s, err := FromImage(img, 16)
	if err != nil {
		t.Fatal(err)
	}
	want := hist.Of(img)
	got := s.GlobalHistogram()
	if got != want {
		t.Fatal("sum of per-tile histograms differs from the image histogram")
	}
}

// TestGatherLUTFusesMatch pins the fused-Prepare contract: GatherLUT's
// matched image is byte-identical to hist.Match, and its store is identical
// to gathering that matched image.
func TestGatherLUTFusesMatch(t *testing.T) {
	input := synth.MustGenerate(synth.Lena, 128)
	target := synth.MustGenerate(synth.Sailboat, 128)
	lut, err := hist.MatchLUT(hist.Of(input), hist.Of(target))
	if err != nil {
		t.Fatal(err)
	}
	s, matched, err := GatherLUT(input, 16, lut)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := hist.Match(input, target)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(matched.Pix, ref.Pix) {
		t.Fatal("GatherLUT matched image differs from hist.Match")
	}
	refStore, err := FromImage(ref, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s.Pix, refStore.Pix) || !bytes.Equal(s.Thumb, refStore.Thumb) {
		t.Fatal("GatherLUT store differs from FromImage of the matched image")
	}
	g, err := tile.NewGrid(ref, 16)
	if err != nil {
		t.Fatal(err)
	}
	checkStoreAgainstGrid(t, s, g)
}

func TestLayout(t *testing.T) {
	lay := LayoutFor(16) // m² = 256, already aligned
	if lay.TileBytes != 256 || lay.Stride != 256 || lay.PadBytes != 0 || lay.ThumbSide != 4 {
		t.Fatalf("LayoutFor(16) = %+v", lay)
	}
	lay = LayoutFor(5) // m² = 25 → stride 32
	if lay.Stride != 32 || lay.PadBytes != 7 || lay.ThumbSide != 4 {
		t.Fatalf("LayoutFor(5) = %+v", lay)
	}
	if lay = LayoutFor(3); lay.ThumbSide != 3 {
		t.Fatalf("LayoutFor(3).ThumbSide = %d", lay.ThumbSide)
	}
	s, err := FromImage(imgutil.NewGray(10, 10), 5)
	if err != nil {
		t.Fatal(err)
	}
	if s.Layout() != LayoutFor(5) {
		t.Fatalf("Layout() = %+v", s.Layout())
	}
	if s.MemoryBytes() != int64(len(s.Pix))+8*4+4*4*256+4*16 {
		t.Fatalf("MemoryBytes() = %d", s.MemoryBytes())
	}
}

func TestMean(t *testing.T) {
	img := imgutil.NewGray(4, 4)
	for i := range img.Pix {
		img.Pix[i] = uint8(i) // 0..15 → sum 120, mean 7 (truncated 120/16)
	}
	s, err := FromImage(img, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean(0) != 7 {
		t.Fatalf("Mean = %d, want 7", s.Mean(0))
	}
}

// TestFromRGBMatchesGridRows: every colour block holds its tile's RGB rows
// back to back, zero-padded to a PadAlign multiple, with the byte sum in Sum.
func TestFromRGBMatchesGridRows(t *testing.T) {
	for _, tc := range []struct{ n, m int }{{32, 8}, {45, 9}, {24, 4}} {
		img, err := synth.GenerateRGB(synth.Peppers, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		s, err := FromRGB(img, tc.m)
		if err != nil {
			t.Fatal(err)
		}
		g, err := tile.NewRGBGrid(img, tc.m)
		if err != nil {
			t.Fatal(err)
		}
		if s.Channels != 3 || s.S() != g.S() || s.Stride%PadAlign != 0 || s.Stride < 3*tc.m*tc.m {
			t.Fatalf("n=%d m=%d: channels %d, S %d, stride %d", tc.n, tc.m, s.Channels, s.S(), s.Stride)
		}
		for i := 0; i < s.S(); i++ {
			var want []uint8
			var sum int64
			for r := 0; r < tc.m; r++ {
				want = append(want, g.Row(i, r)...)
			}
			for _, p := range want {
				sum += int64(p)
			}
			if !bytes.Equal(s.Tile(i), want) {
				t.Fatalf("n=%d m=%d: tile %d bytes differ from the grid rows", tc.n, tc.m, i)
			}
			if pad := s.TilePadded(i)[len(want):]; !bytes.Equal(pad, make([]uint8, len(pad))) {
				t.Fatalf("n=%d m=%d: tile %d padding not zero", tc.n, tc.m, i)
			}
			if s.Sum[i] != sum || s.Mean(i) != uint8(sum/int64(len(want))) {
				t.Fatalf("n=%d m=%d: tile %d sum %d, want %d", tc.n, tc.m, i, s.Sum[i], sum)
			}
		}
	}
	if _, err := FromRGB(imgutil.NewRGB(30, 30), 8); err == nil {
		t.Error("accepted an image not divisible into tiles")
	}
}
