// Package tile splits images into the fixed grids of M×M tiles the paper
// operates on and reassembles rearranged images from them.
//
// The paper divides an N×N image into S = (N/M)² tiles (§II). A Grid keeps
// the source image plus its geometry; tiles are indexed 0..S−1 in row-major
// order (the paper's 1-based I₁..I_S shifted to 0-based). Tile pixel data is
// exposed as subslice views into the original image so the error kernels can
// stream rows without copying.
package tile

import (
	"errors"
	"fmt"

	"repro/internal/imgutil"
	"repro/internal/perm"
)

// ErrGeometry reports an image/tile-size combination that does not form a
// whole grid.
var ErrGeometry = errors.New("tile: invalid grid geometry")

// Grid is an image divided into square tiles.
type Grid struct {
	Img  *imgutil.Gray
	M    int // tile side length in pixels
	Cols int // tiles per row  (Img.W / M)
	Rows int // tiles per column (Img.H / M)
}

// NewGrid divides img into m×m tiles. The image dimensions must be positive
// multiples of m. Images need not be square (the paper uses square images,
// but nothing in the algorithms requires it).
func NewGrid(img *imgutil.Gray, m int) (*Grid, error) {
	if m <= 0 {
		return nil, fmt.Errorf("tile: tile size %d: %w", m, ErrGeometry)
	}
	if img.W%m != 0 || img.H%m != 0 {
		return nil, fmt.Errorf("tile: %dx%d image not divisible into %dx%d tiles: %w", img.W, img.H, m, m, ErrGeometry)
	}
	return &Grid{Img: img, M: m, Cols: img.W / m, Rows: img.H / m}, nil
}

// NewGridByCount divides img into tilesPerSide × tilesPerSide tiles, the
// parameterisation the paper's tables use (S = 16×16 means 16 tiles per
// side). The image must be square and divisible by tilesPerSide.
func NewGridByCount(img *imgutil.Gray, tilesPerSide int) (*Grid, error) {
	if tilesPerSide <= 0 {
		return nil, fmt.Errorf("tile: %d tiles per side: %w", tilesPerSide, ErrGeometry)
	}
	if img.W != img.H {
		return nil, fmt.Errorf("tile: NewGridByCount needs a square image, got %dx%d: %w", img.W, img.H, ErrGeometry)
	}
	if img.W%tilesPerSide != 0 {
		return nil, fmt.Errorf("tile: side %d not divisible by %d tiles: %w", img.W, tilesPerSide, ErrGeometry)
	}
	return NewGrid(img, img.W/tilesPerSide)
}

// S returns the number of tiles in the grid.
func (g *Grid) S() int { return g.Cols * g.Rows }

// Origin returns the pixel coordinates of the top-left corner of tile i.
func (g *Grid) Origin(i int) (x, y int) {
	if i < 0 || i >= g.S() {
		panic(fmt.Sprintf("tile: Origin(%d) on grid with %d tiles", i, g.S()))
	}
	return (i % g.Cols) * g.M, (i / g.Cols) * g.M
}

// Index returns the tile index containing pixel (x, y).
func (g *Grid) Index(x, y int) int {
	if x < 0 || y < 0 || x >= g.Img.W || y >= g.Img.H {
		panic(fmt.Sprintf("tile: Index(%d, %d) on %dx%d image", x, y, g.Img.W, g.Img.H))
	}
	return (y/g.M)*g.Cols + x/g.M
}

// Row returns row r (0 ≤ r < M) of tile i as a view into the image buffer.
// Mutating the returned slice mutates the grid's image.
func (g *Grid) Row(i, r int) []uint8 {
	x, y := g.Origin(i)
	off := (y+r)*g.Img.W + x
	return g.Img.Pix[off : off+g.M]
}

// Tile copies tile i into a standalone M×M image.
func (g *Grid) Tile(i int) *imgutil.Gray {
	out := imgutil.NewGray(g.M, g.M)
	for r := 0; r < g.M; r++ {
		copy(out.Pix[r*g.M:(r+1)*g.M], g.Row(i, r))
	}
	return out
}

// Tiles copies every tile, in index order.
func (g *Grid) Tiles() []*imgutil.Gray {
	out := make([]*imgutil.Gray, g.S())
	for i := range out {
		out[i] = g.Tile(i)
	}
	return out
}

// Flatten packs all tiles into one contiguous buffer of S·M·M bytes, tile
// after tile, each tile row-major. This is the "global memory" layout the
// CUDA-style kernels consume: tile i occupies bytes [i·M², (i+1)·M²).
func (g *Grid) Flatten() []uint8 {
	m2 := g.M * g.M
	out := make([]uint8, g.S()*m2)
	for i := 0; i < g.S(); i++ {
		for r := 0; r < g.M; r++ {
			copy(out[i*m2+r*g.M:i*m2+(r+1)*g.M], g.Row(i, r))
		}
	}
	return out
}

// Assemble builds the rearranged image R: position v of the result receives
// tile p[v] of the grid. p must be a valid permutation of S elements.
func (g *Grid) Assemble(p perm.Perm) (*imgutil.Gray, error) {
	if len(p) != g.S() {
		return nil, fmt.Errorf("tile: Assemble with %d-element permutation on %d tiles: %w", len(p), g.S(), ErrGeometry)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	out := imgutil.NewGray(g.Img.W, g.Img.H)
	for v := 0; v < g.S(); v++ {
		dx, dy := g.Origin(v)
		src := p[v]
		for r := 0; r < g.M; r++ {
			copy(out.Pix[(dy+r)*out.W+dx:(dy+r)*out.W+dx+g.M], g.Row(src, r))
		}
	}
	return out, nil
}

// RGBGrid is the color counterpart of Grid, used by the color-mosaic
// extension.
type RGBGrid struct {
	Img  *imgutil.RGB
	M    int
	Cols int
	Rows int
}

// NewRGBGrid divides a color image into m×m tiles.
func NewRGBGrid(img *imgutil.RGB, m int) (*RGBGrid, error) {
	if m <= 0 {
		return nil, fmt.Errorf("tile: tile size %d: %w", m, ErrGeometry)
	}
	if img.W%m != 0 || img.H%m != 0 {
		return nil, fmt.Errorf("tile: %dx%d image not divisible into %dx%d tiles: %w", img.W, img.H, m, m, ErrGeometry)
	}
	return &RGBGrid{Img: img, M: m, Cols: img.W / m, Rows: img.H / m}, nil
}

// S returns the number of tiles in the grid.
func (g *RGBGrid) S() int { return g.Cols * g.Rows }

// Origin returns the pixel coordinates of the top-left corner of tile i.
func (g *RGBGrid) Origin(i int) (x, y int) {
	if i < 0 || i >= g.S() {
		panic(fmt.Sprintf("tile: Origin(%d) on grid with %d tiles", i, g.S()))
	}
	return (i % g.Cols) * g.M, (i / g.Cols) * g.M
}

// Row returns row r of tile i as an interleaved RGB view (3·M bytes).
func (g *RGBGrid) Row(i, r int) []uint8 {
	x, y := g.Origin(i)
	off := 3 * ((y+r)*g.Img.W + x)
	return g.Img.Pix[off : off+3*g.M]
}

// Assemble builds the rearranged color image under permutation p.
func (g *RGBGrid) Assemble(p perm.Perm) (*imgutil.RGB, error) {
	if len(p) != g.S() {
		return nil, fmt.Errorf("tile: Assemble with %d-element permutation on %d tiles: %w", len(p), g.S(), ErrGeometry)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	out := imgutil.NewRGB(g.Img.W, g.Img.H)
	for v := 0; v < g.S(); v++ {
		dx, dy := g.Origin(v)
		src := p[v]
		for r := 0; r < g.M; r++ {
			dst := 3 * ((dy+r)*out.W + dx)
			copy(out.Pix[dst:dst+3*g.M], g.Row(src, r))
		}
	}
	return out, nil
}
