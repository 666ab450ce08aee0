package metric

import (
	"testing"

	"repro/internal/cuda"
	"repro/internal/imgutil"
	"repro/internal/perm"
	"repro/internal/synth"
	"repro/internal/tile"
	"repro/internal/tilestore"
)

func rgbGrids(t testing.TB, n, m int) (*tile.RGBGrid, *tile.RGBGrid) {
	t.Helper()
	inImg, err := synth.GenerateRGB(synth.Peppers, n)
	if err != nil {
		t.Fatal(err)
	}
	tgtImg, err := synth.GenerateRGB(synth.Barbara, n)
	if err != nil {
		t.Fatal(err)
	}
	in, err := tile.NewRGBGrid(inImg, m)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := tile.NewRGBGrid(tgtImg, m)
	if err != nil {
		t.Fatal(err)
	}
	return in, tg
}

func TestRGBBuildersAgree(t *testing.T) {
	in, tg := rgbGrids(t, 32, 8)
	inS, tgS := rgbStoresOf(t, in, tg)
	for _, met := range []Metric{L1, L2} {
		want := oracleRGBMatrix(in, tg, met)
		got, err := BuildStoreBlocked(inS, tgS, met)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("%v: host colour matrix differs from the oracle", met)
		}
		for _, workers := range []int{1, 4} {
			got, err := BuildStoreDevice(cuda.New(workers), inS, tgS, met)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Errorf("workers=%d %v: device colour matrix differs from the oracle", workers, met)
			}
		}
	}
}

func TestRGBMatrixOfGrayImageIsTripleGrayMatrix(t *testing.T) {
	// Lifting a grayscale image to RGB (r = g = b) must triple every L1
	// entry — the invariant tying the color error function to Eq. (1).
	inGray := synth.MustGenerate(synth.Lena, 32)
	tgtGray := synth.MustGenerate(synth.Sailboat, 32)
	gIn, _ := tile.NewGrid(inGray, 8)
	gTgt, _ := tile.NewGrid(tgtGray, 8)
	gInS, gTgtS := storesOf(gIn, gTgt)
	grayM, err := BuildStoreBlocked(gInS, gTgtS, L1)
	if err != nil {
		t.Fatal(err)
	}
	cIn, _ := tilestore.FromRGB(imgutil.RGBFromGray(inGray), 8)
	cTgt, _ := tilestore.FromRGB(imgutil.RGBFromGray(tgtGray), 8)
	colorM, err := BuildStoreBlocked(cIn, cTgt, L1)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range colorM.W {
		if c != 3*grayM.W[i] {
			t.Fatalf("entry %d: color %d != 3×gray %d", i, c, grayM.W[i])
		}
	}
}

func TestRGBTotalMatchesImageError(t *testing.T) {
	in, tg := rgbGrids(t, 32, 8)
	inS, tgS := rgbStoresOf(t, in, tg)
	m, err := BuildStoreBlocked(inS, tgS, L1)
	if err != nil {
		t.Fatal(err)
	}
	p := perm.Random(m.S, 4)
	mosaic, err := in.Assemble(p)
	if err != nil {
		t.Fatal(err)
	}
	imgErr, err := mosaic.AbsDiffSum(tg.Img)
	if err != nil {
		t.Fatal(err)
	}
	if m.Total(p) != imgErr {
		t.Errorf("matrix total %d != image error %d", m.Total(p), imgErr)
	}
}

func TestRGBBuildValidation(t *testing.T) {
	in, _ := rgbGrids(t, 32, 8)
	_, tgSmall := rgbGrids(t, 32, 4)
	inS, tgSmallS := rgbStoresOf(t, in, tgSmall)
	if _, err := BuildStoreBlocked(inS, tgSmallS, L1); err == nil {
		t.Error("accepted mismatched color stores")
	}
	if _, err := BuildStoreDevice(cuda.New(1), inS, tgSmallS, L1); err == nil {
		t.Error("device builder accepted mismatched color stores")
	}
	if _, err := BuildStoreBlocked(inS, inS, Metric(7)); err == nil {
		t.Error("accepted invalid metric")
	}
	// Color tiles beyond MaxTileSideRGB overflow Cost under L2, although
	// the same side is fine for grayscale.
	big, err := tilestore.FromRGB(imgutil.NewRGB(210, 210), MaxTileSideRGB+1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildStoreBlocked(big, big, L1); err == nil {
		t.Error("accepted color tile side beyond overflow bound")
	}
	// Orientations and proxy descriptors index M×M grayscale payloads.
	if _, err := BuildOrientedStore(inS, inS, L1); err == nil {
		t.Error("oriented builder accepted a color store")
	}
	if _, err := BuildProxy(inS, inS, L1, 4); err == nil {
		t.Error("proxy builder accepted a color store")
	}
}

func TestAssignmentErrorMatchesMatrixTotal(t *testing.T) {
	in, tg := grids(t, 64, 8)
	inS, tgS := storesOf(in, tg)
	m, err := BuildStoreBlocked(inS, tgS, L1)
	if err != nil {
		t.Fatal(err)
	}
	p := perm.Random(m.S, 11)
	direct, err := AssignmentError(in, tg, p, L1)
	if err != nil {
		t.Fatal(err)
	}
	if direct != m.Total(p) {
		t.Errorf("AssignmentError %d != matrix total %d", direct, m.Total(p))
	}
	if _, err := AssignmentError(in, tg, perm.Perm{0}, L1); err == nil {
		t.Error("accepted short assignment")
	}
	if _, err := AssignmentError(in, tg, make(perm.Perm, m.S), L1); err == nil {
		t.Error("accepted non-bijection")
	}
	if _, err := AssignmentError(in, tg, p, Metric(9)); err == nil {
		t.Error("accepted invalid metric")
	}
}
