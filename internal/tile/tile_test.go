package tile

import (
	"testing"
	"testing/quick"

	"repro/internal/imgutil"
	"repro/internal/perm"
)

func ramp(w, h int) *imgutil.Gray {
	g := imgutil.NewGray(w, h)
	for i := range g.Pix {
		g.Pix[i] = uint8(i)
	}
	return g
}

func TestNewGridGeometry(t *testing.T) {
	g, err := NewGrid(ramp(16, 8), 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.Cols != 4 || g.Rows != 2 || g.S() != 8 {
		t.Errorf("cols=%d rows=%d S=%d", g.Cols, g.Rows, g.S())
	}
}

func TestNewGridRejectsBadGeometry(t *testing.T) {
	img := ramp(16, 16)
	if _, err := NewGrid(img, 0); err == nil {
		t.Error("accepted tile size 0")
	}
	if _, err := NewGrid(img, -2); err == nil {
		t.Error("accepted negative tile size")
	}
	if _, err := NewGrid(img, 5); err == nil {
		t.Error("accepted non-divisible tile size")
	}
	if _, err := NewGrid(ramp(16, 12), 8); err == nil {
		t.Error("accepted height not divisible")
	}
}

func TestNewGridByCount(t *testing.T) {
	g, err := NewGridByCount(ramp(32, 32), 8)
	if err != nil {
		t.Fatal(err)
	}
	if g.M != 4 || g.S() != 64 {
		t.Errorf("M=%d S=%d", g.M, g.S())
	}
	if _, err := NewGridByCount(ramp(32, 16), 8); err == nil {
		t.Error("accepted non-square image")
	}
	if _, err := NewGridByCount(ramp(32, 32), 5); err == nil {
		t.Error("accepted non-divisible count")
	}
	if _, err := NewGridByCount(ramp(32, 32), 0); err == nil {
		t.Error("accepted zero count")
	}
}

func TestOriginAndIndexInverse(t *testing.T) {
	g, err := NewGrid(ramp(24, 24), 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.S(); i++ {
		x, y := g.Origin(i)
		if g.Index(x, y) != i {
			t.Errorf("Index(Origin(%d)) = %d", i, g.Index(x, y))
		}
		// Every pixel inside the tile maps back to it.
		if g.Index(x+g.M-1, y+g.M-1) != i {
			t.Errorf("bottom-right of tile %d maps to %d", i, g.Index(x+g.M-1, y+g.M-1))
		}
	}
}

func TestRowIsAliasedView(t *testing.T) {
	g, err := NewGrid(ramp(8, 8), 4)
	if err != nil {
		t.Fatal(err)
	}
	row := g.Row(3, 1) // tile 3 = bottom-right, row 1
	row[0] = 250
	x, y := g.Origin(3)
	if g.Img.At(x, y+1) != 250 {
		t.Error("Row did not alias the image")
	}
}

func TestTileCopies(t *testing.T) {
	g, err := NewGrid(ramp(8, 8), 4)
	if err != nil {
		t.Fatal(err)
	}
	tl := g.Tile(0)
	tl.Pix[0] = 99
	if g.Img.Pix[0] == 99 {
		t.Error("Tile aliased the image")
	}
	if len(g.Tiles()) != 4 {
		t.Errorf("Tiles returned %d", len(g.Tiles()))
	}
}

func TestFlattenLayout(t *testing.T) {
	g, err := NewGrid(ramp(4, 4), 2)
	if err != nil {
		t.Fatal(err)
	}
	flat := g.Flatten()
	// Tile 1 (top-right): pixels (2,0),(3,0),(2,1),(3,1) = 2,3,6,7.
	want := []uint8{2, 3, 6, 7}
	got := flat[4:8]
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("flat tile 1 = %v, want %v", got, want)
		}
	}
}

func TestAssembleIdentityReconstructs(t *testing.T) {
	img := ramp(16, 16)
	g, err := NewGrid(img, 4)
	if err != nil {
		t.Fatal(err)
	}
	out, err := g.Assemble(perm.Identity(g.S()))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(img) {
		t.Error("identity assembly changed the image")
	}
}

func TestAssembleMovesTiles(t *testing.T) {
	img := imgutil.NewGray(4, 4)
	// Tile values: tile i filled with i*10.
	g, err := NewGrid(img, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		x, y := g.Origin(i)
		for r := 0; r < 2; r++ {
			for c := 0; c < 2; c++ {
				img.Set(x+c, y+r, uint8(i*10))
			}
		}
	}
	p := perm.Perm{3, 2, 1, 0} // reverse tiles
	out, err := g.Assemble(p)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 4; v++ {
		x, y := g.Origin(v)
		if out.At(x, y) != uint8(p[v]*10) {
			t.Errorf("position %d holds %d, want tile %d", v, out.At(x, y), p[v])
		}
	}
}

func TestAssembleRejectsBadPerms(t *testing.T) {
	g, err := NewGrid(ramp(8, 8), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Assemble(perm.Perm{0, 1}); err == nil {
		t.Error("accepted short permutation")
	}
	if _, err := g.Assemble(perm.Perm{0, 0, 1, 2}); err == nil {
		t.Error("accepted non-bijection")
	}
}

func TestAssembleRoundTripProperty(t *testing.T) {
	// Assembling with p then with p.Inverse() restores the original.
	img := ramp(24, 24)
	g, err := NewGrid(img, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64) bool {
		p := perm.Random(g.S(), seed)
		mid, err := g.Assemble(p)
		if err != nil {
			return false
		}
		g2, err := NewGrid(mid, 4)
		if err != nil {
			return false
		}
		back, err := g2.Assemble(p.Inverse())
		return err == nil && back.Equal(img)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestAssemblePreservesMultiset(t *testing.T) {
	// Rearrangement permutes tiles: the pixel multiset is invariant.
	img := ramp(16, 16)
	g, _ := NewGrid(img, 4)
	out, err := g.Assemble(perm.Random(g.S(), 7))
	if err != nil {
		t.Fatal(err)
	}
	var histIn, histOut [256]int
	for _, p := range img.Pix {
		histIn[p]++
	}
	for _, p := range out.Pix {
		histOut[p]++
	}
	if histIn != histOut {
		t.Error("assembly changed the pixel multiset")
	}
}

func TestRGBGridRowsAndAssemble(t *testing.T) {
	img := imgutil.NewRGB(4, 4)
	for i := range img.Pix {
		img.Pix[i] = uint8(i)
	}
	g, err := NewRGBGrid(img, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.S() != 4 {
		t.Fatalf("S = %d", g.S())
	}
	// Row r of tile 3 (origin (2, 2)) is pixels (2..3, 2+r), interleaved.
	for r := 0; r < 2; r++ {
		row := g.Row(3, r)
		off := 3 * ((2+r)*4 + 2)
		if len(row) != 6 || row[0] != img.Pix[off] || row[5] != img.Pix[off+5] {
			t.Fatalf("Row(3, %d) = %v, want image bytes from %d", r, row, off)
		}
	}
	// Identity assembly reproduces the image.
	out, err := g.Assemble(perm.Identity(4))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(img) {
		t.Error("identity assembly changed the color image")
	}
	// Round trip under a swap.
	p := perm.Perm{1, 0, 3, 2}
	mid, err := g.Assemble(p)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := NewRGBGrid(mid, 2)
	back, err := g2.Assemble(p.Inverse())
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(img) {
		t.Error("color assembly round trip failed")
	}
}

func TestRGBGridRejectsBadGeometry(t *testing.T) {
	img := imgutil.NewRGB(8, 8)
	if _, err := NewRGBGrid(img, 3); err == nil {
		t.Error("accepted non-divisible tile size")
	}
	if _, err := NewRGBGrid(img, 0); err == nil {
		t.Error("accepted zero tile size")
	}
	g, _ := NewRGBGrid(img, 4)
	if _, err := g.Assemble(perm.Perm{0}); err == nil {
		t.Error("accepted short permutation")
	}
}

func TestOriginPanicsOutOfRange(t *testing.T) {
	g, _ := NewGrid(ramp(8, 8), 4)
	defer func() {
		if recover() == nil {
			t.Error("Origin out of range did not panic")
		}
	}()
	g.Origin(4)
}

func BenchmarkFlatten512M8(b *testing.B) {
	g, err := NewGrid(ramp(512, 512), 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Flatten()
	}
}

func BenchmarkAssemble512(b *testing.B) {
	g, err := NewGrid(ramp(512, 512), 16)
	if err != nil {
		b.Fatal(err)
	}
	p := perm.Random(g.S(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Assemble(p); err != nil {
			b.Fatal(err)
		}
	}
}
