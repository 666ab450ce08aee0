package metric

import (
	"testing"

	"repro/internal/cuda"
	"repro/internal/imgutil"
	"repro/internal/perm"
	"repro/internal/synth"
	"repro/internal/tile"
)

func TestOrientedNeverWorseThanUpright(t *testing.T) {
	inS, tgS := storesOf(grids(t, 64, 8))
	plain, err := BuildStoreBlocked(inS, tgS, L1)
	if err != nil {
		t.Fatal(err)
	}
	oriented, err := BuildOrientedStore(inS, tgS, L1)
	if err != nil {
		t.Fatal(err)
	}
	improved := 0
	for i, c := range oriented.W {
		if c > plain.W[i] {
			t.Fatalf("entry %d: oriented cost %d above upright %d", i, c, plain.W[i])
		}
		if c < plain.W[i] {
			improved++
		}
	}
	if improved == 0 {
		t.Error("no pair improved under any orientation — oriented search is inert")
	}
	// Where the best orientation is upright, costs must match exactly.
	for i, o := range oriented.Orient {
		if o == imgutil.Upright && oriented.W[i] != plain.W[i] {
			t.Fatalf("entry %d: upright chosen but cost %d != %d", i, oriented.W[i], plain.W[i])
		}
	}
}

func TestOrientedCostMatchesMaterialisedTile(t *testing.T) {
	// The recorded best cost must equal TileError of the actually-oriented
	// tile — the kernel's index arithmetic against the reference transform.
	in, tg := grids(t, 32, 8)
	inS, tgS := storesOf(in, tg)
	oriented, err := BuildOrientedStore(inS, tgS, L1)
	if err != nil {
		t.Fatal(err)
	}
	for _, uv := range [][2]int{{0, 0}, {3, 9}, {14, 2}, {7, 7}} {
		u, v := uv[0], uv[1]
		o := oriented.BestOrientation(u, v)
		rotated := in.Tile(u).Orient(o)
		want := TileError(rotated.Pix, tg.Tile(v).Pix, L1)
		if got := oriented.At(u, v); got != want {
			t.Errorf("(%d,%d) orientation %v: cost %d, materialised %d", u, v, o, got, want)
		}
	}
}

func TestOrientedSerialAndDeviceAgree(t *testing.T) {
	in, tg := grids(t, 32, 8)
	inS, tgS := storesOf(in, tg)
	for _, met := range []Metric{L1, L2} {
		want := oracleOriented(in, tg, met)
		got, err := BuildOrientedStore(inS, tgS, met)
		if err != nil {
			t.Fatal(err)
		}
		checkOrientedEqual(t, got, want)
		for _, workers := range []int{1, 4} {
			got, err := BuildOrientedStoreDevice(cuda.New(workers), inS, tgS, met)
			if err != nil {
				t.Fatal(err)
			}
			checkOrientedEqual(t, got, want)
		}
	}
}

func TestOrientedL2(t *testing.T) {
	inS, tgS := storesOf(grids(t, 32, 8))
	oriented, err := BuildOrientedStore(inS, tgS, L2)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := BuildStoreBlocked(inS, tgS, L2)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range oriented.W {
		if c > plain.W[i] {
			t.Fatalf("L2 entry %d: oriented %d above upright %d", i, c, plain.W[i])
		}
	}
}

func TestOrientationsVector(t *testing.T) {
	inS, tgS := storesOf(grids(t, 32, 8))
	oriented, err := BuildOrientedStore(inS, tgS, L1)
	if err != nil {
		t.Fatal(err)
	}
	p := perm.Random(oriented.S, 3)
	vec, err := oriented.Orientations(p)
	if err != nil {
		t.Fatal(err)
	}
	for v, o := range vec {
		if o != oriented.BestOrientation(p[v], v) {
			t.Fatalf("position %d: orientation %v, want %v", v, o, oriented.BestOrientation(p[v], v))
		}
	}
	if _, err := oriented.Orientations(perm.Perm{0, 1}); err == nil {
		t.Error("accepted short assignment")
	}
	if _, err := oriented.Orientations(make(perm.Perm, oriented.S)); err == nil {
		t.Error("accepted non-bijection")
	}
}

func TestOrientedValidation(t *testing.T) {
	in, _ := grids(t, 32, 8)
	_, tgBad := grids(t, 32, 4)
	inS, tgBadS := storesOf(in, tgBad)
	if _, err := BuildOrientedStore(inS, tgBadS, L1); err == nil {
		t.Error("accepted mismatched stores")
	}
	if _, err := BuildOrientedStoreDevice(cuda.New(1), inS, tgBadS, L1); err == nil {
		t.Error("device builder accepted mismatched stores")
	}
	if _, err := BuildOrientedStore(inS, inS, Metric(9)); err == nil {
		t.Error("accepted invalid metric")
	}
}

func TestOrientedOnSymmetricTilesPrefersUpright(t *testing.T) {
	// Constant tiles are invariant under every orientation; the scan keeps
	// the first (upright) candidate, so the orientation matrix must be all
	// upright and costs equal to the plain matrix.
	img := imgutil.NewGray(16, 16)
	img.Fill(80)
	tgt := imgutil.NewGray(16, 16)
	tgt.Fill(90)
	in, _ := tile.NewGrid(img, 4)
	tg, _ := tile.NewGrid(tgt, 4)
	inS, tgS := storesOf(in, tg)
	oriented, err := BuildOrientedStore(inS, tgS, L1)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range oriented.Orient {
		if o != imgutil.Upright {
			t.Fatalf("entry %d: orientation %v on constant tiles", i, o)
		}
	}
}

func BenchmarkBuildOriented256(b *testing.B) {
	in, err := tile.NewGridByCount(synth.MustGenerate(synth.Lena, 128), 16)
	if err != nil {
		b.Fatal(err)
	}
	tg, err := tile.NewGridByCount(synth.MustGenerate(synth.Sailboat, 128), 16)
	if err != nil {
		b.Fatal(err)
	}
	inS, tgS := storesOf(in, tg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildOrientedStore(inS, tgS, L1); err != nil {
			b.Fatal(err)
		}
	}
}
