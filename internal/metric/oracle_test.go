package metric

import (
	"testing"

	"repro/internal/imgutil"
	"repro/internal/tile"
	"repro/internal/tilestore"
)

// The differential oracle of every Step-2 builder. It crops tiles straight
// out of the source image through tile.Grid.Row (tile.RGBGrid.Row for
// colour), orients them through imgutil.Gray.Orient and scores pairs with
// TileErrorScalar — so it shares neither the tile store's gather and
// padding nor the SWAR and row kernels with the code under test.

// oracleTile copies tile i of g out of its image, row by row.
func oracleTile(g *tile.Grid, i int) []uint8 {
	out := make([]uint8, 0, g.M*g.M)
	for r := 0; r < g.M; r++ {
		out = append(out, g.Row(i, r)...)
	}
	return out
}

// oracleRGBTile copies colour tile i of g (3·M² interleaved bytes).
func oracleRGBTile(g *tile.RGBGrid, i int) []uint8 {
	out := make([]uint8, 0, 3*g.M*g.M)
	for r := 0; r < g.M; r++ {
		out = append(out, g.Row(i, r)...)
	}
	return out
}

// oracleFromTiles scores every pair of two tile lists.
func oracleFromTiles(in, tgt [][]uint8, met Metric) *Matrix {
	out := NewMatrix(len(in))
	for u, a := range in {
		for v, b := range tgt {
			out.Set(u, v, TileErrorScalar(a, b, met))
		}
	}
	return out
}

// oracleMatrix is the upright grayscale matrix of Eq. (1).
func oracleMatrix(in, tgt *tile.Grid, met Metric) *Matrix {
	a := make([][]uint8, in.S())
	b := make([][]uint8, tgt.S())
	for i := range a {
		a[i] = oracleTile(in, i)
		b[i] = oracleTile(tgt, i)
	}
	return oracleFromTiles(a, b, met)
}

// oracleRGBMatrix is the colour matrix: Eq. (1) summed over channels.
func oracleRGBMatrix(in, tgt *tile.RGBGrid, met Metric) *Matrix {
	a := make([][]uint8, in.S())
	b := make([][]uint8, tgt.S())
	for i := range a {
		a[i] = oracleRGBTile(in, i)
		b[i] = oracleRGBTile(tgt, i)
	}
	return oracleFromTiles(a, b, met)
}

// oracleOriented scores every pair under all eight materialised
// orientations of the input tile, keeping the first minimum (upright wins
// ties, then orientations in enumeration order).
func oracleOriented(in, tgt *tile.Grid, met Metric) *OrientedMatrix {
	s := in.S()
	out := &OrientedMatrix{Matrix: *NewMatrix(s), Orient: make([]imgutil.Orientation, s*s)}
	for u := 0; u < s; u++ {
		var rot [imgutil.NumOrientations][]uint8
		for o := range rot {
			rot[o] = in.Tile(u).Orient(imgutil.Orientation(o)).Pix
		}
		for v := 0; v < s; v++ {
			tv := oracleTile(tgt, v)
			best, bestO := TileErrorScalar(rot[0], tv, met), imgutil.Upright
			for o := 1; o < len(rot); o++ {
				if c := TileErrorScalar(rot[o], tv, met); c < best {
					best, bestO = c, imgutil.Orientation(o)
				}
			}
			out.Set(u, v, best)
			out.Orient[u*s+v] = bestO
		}
	}
	return out
}

// oracleProxy is the proxy matrix from d×d box means of cropped tiles
// (rounded to nearest), each pair's per-sample error sum scaled by (M/d)².
func oracleProxy(in, tgt *tile.Grid, met Metric, d int) *Matrix {
	desc := func(g *tile.Grid, i int) []uint8 {
		k := g.M / d
		out := make([]uint8, d*d)
		for by := 0; by < d; by++ {
			for bx := 0; bx < d; bx++ {
				sum := 0
				for y := by * k; y < (by+1)*k; y++ {
					for x := bx * k; x < (bx+1)*k; x++ {
						sum += int(g.Row(i, y)[x])
					}
				}
				out[by*d+bx] = uint8((sum + k*k/2) / (k * k))
			}
		}
		return out
	}
	scale := Cost((in.M / d) * (in.M / d))
	a := make([][]uint8, in.S())
	b := make([][]uint8, tgt.S())
	for i := range a {
		a[i] = desc(in, i)
		b[i] = desc(tgt, i)
	}
	out := oracleFromTiles(a, b, met)
	for i := range out.W {
		out.W[i] *= scale
	}
	return out
}

// storesOf gathers the tile stores of two grids.
func storesOf(in, tgt *tile.Grid) (*tilestore.Store, *tilestore.Store) {
	return tilestore.FromGrid(in), tilestore.FromGrid(tgt)
}

// rgbStoresOf gathers the colour tile stores of two colour grids.
func rgbStoresOf(t testing.TB, in, tgt *tile.RGBGrid) (*tilestore.Store, *tilestore.Store) {
	t.Helper()
	a, err := tilestore.FromRGB(in.Img, in.M)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tilestore.FromRGB(tgt.Img, tgt.M)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// checkOrientedEqual fails unless both the costs and the chosen
// orientations of two oriented matrices agree.
func checkOrientedEqual(t *testing.T, got, want *OrientedMatrix) {
	t.Helper()
	if !got.Matrix.Equal(&want.Matrix) {
		t.Fatal("oriented matrix differs from the oracle")
	}
	for i := range got.Orient {
		if got.Orient[i] != want.Orient[i] {
			t.Fatalf("orientation[%d] = %v, want %v", i, got.Orient[i], want.Orient[i])
		}
	}
}
