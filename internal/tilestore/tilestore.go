// Package tilestore is the immutable columnar (SoA) tile store behind the
// Step-2 and Step-3 hot paths.
//
// The paper's pipeline streams per-tile pixels in both the cost-matrix build
// (Step 2, S² tile-error evaluations) and the local search's delta
// bookkeeping (Step 3), but a tile.Grid keeps tiles as row-major crops inside
// the source image: every consumer re-gathers them (Grid.Flatten) and no two
// consumers share the gathered copy. The Store fixes the layout once:
//
//   - Pix holds one contiguous pixel block per tile, tile i at
//     [i·Stride, (i+1)·Stride). Blocks are padded with zero bytes up to
//     Stride, a multiple of PadAlign, so the Step-2 kernels stream whole
//     32-byte chunks with no tail handling and rows of consecutive tiles stay
//     cache-line aligned. Zero padding is metric-neutral: |0−0| contributes
//     nothing under L1 or L2, so kernels may run over the padded block and
//     stay bit-identical to the unpadded crop path.
//   - Per-tile summary stats — pixel sum, 256-bin histogram, and a low-res
//     box-downsampled thumbnail feature vector — are computed in the same
//     pass that gathers the pixels. The per-tile histograms sum to the
//     image's global histogram, which is how the fused Prepare gets the
//     target's distribution for §II histogram matching without a second
//     pass; the thumbnails are the feature vectors clustering/candidate
//     pruning consumes.
//
// A Store is immutable after construction: concurrent readers (cost-matrix
// builders on several devices, concurrent FinishContext calls on one cached
// core.Prepared) need no synchronisation. The gather is exact and invertible
// — Scatter reconstructs the source image byte for byte, which
// FuzzTileStoreRoundTrip enforces across fuzzed geometries.
package tilestore

import (
	"fmt"

	"repro/internal/hist"
	"repro/internal/imgutil"
	"repro/internal/tile"
)

// PadAlign is the byte alignment of each tile's pixel block. 32 matches the
// widest stride of the Step-2 kernels — four uint64 words per SWAR
// iteration, two 16-byte PSADBW lanes per row-kernel iteration — so a
// padded block is always covered by whole unrolled iterations.
const PadAlign = 32

// ThumbSide is the side length of the per-tile thumbnail feature vector
// (clamped to the tile side for tiles smaller than ThumbSide×ThumbSide).
// 4×4 box means follow the related-work descriptor size used by proxy
// matrices and by clustering-based candidate pruning.
const ThumbSide = 4

// histBins is the number of histogram bins per tile (the 8-bit data model).
const histBins = 256

// Store is an immutable columnar tile store: S contiguous padded pixel
// blocks plus per-tile summary stats, all indexed by the grid's row-major
// tile order. Construct with FromGrid, FromImage or GatherLUT; do not
// mutate any field afterwards.
type Store struct {
	M    int // tile side in pixels
	Cols int // tiles per image row
	Rows int // tiles per image column
	// Stride is the padded byte size of one tile block: M² rounded up to a
	// multiple of PadAlign. Padding bytes are zero.
	Stride int
	// Pix is the flat pixel buffer, S·Stride bytes: tile i row-major at
	// [i·Stride, i·Stride+M²), then zero padding to (i+1)·Stride.
	Pix []uint8
	// Sum is the per-tile pixel sum (Σ of the M² bytes).
	Sum []int64
	// Hist is the per-tile intensity histogram, histBins counters per tile:
	// tile i's bin v at Hist[i·256+v]. Tile histograms sum to the image's
	// global histogram.
	Hist []uint32
	// Thumb is the per-tile thumbnail, ThumbDim² bytes per tile: the tile
	// box-downsampled to ThumbDim×ThumbDim by integer mean (truncating
	// division) over each cell.
	Thumb []uint8
	// ThumbDim is the realised thumbnail side: min(ThumbSide, M).
	ThumbDim int
}

// Layout describes the store's memory layout for reports and schema records.
type Layout struct {
	TileBytes  int `json:"tile_bytes"`           // M² payload bytes per tile
	Stride     int `json:"stride_bytes"`         // padded block size
	PadBytes   int `json:"pad_bytes"`            // Stride − M²
	StatsBytes int `json:"stats_bytes_per_tile"` // sum + histogram + thumbnail
	ThumbSide  int `json:"thumb_side"`           // realised thumbnail side
}

// LayoutFor returns the layout a store with tile side m uses, without
// building one — reports record it next to their timings.
func LayoutFor(m int) Layout {
	if m <= 0 {
		panic(fmt.Sprintf("tilestore: LayoutFor(%d)", m))
	}
	m2 := m * m
	stride := (m2 + PadAlign - 1) / PadAlign * PadAlign
	td := ThumbSide
	if td > m {
		td = m
	}
	return Layout{
		TileBytes:  m2,
		Stride:     stride,
		PadBytes:   stride - m2,
		StatsBytes: 8 + 4*histBins + td*td,
		ThumbSide:  td,
	}
}

// Layout returns the realised layout of s.
func (s *Store) Layout() Layout { return LayoutFor(s.M) }

// S returns the number of tiles.
func (s *Store) S() int { return s.Cols * s.Rows }

// Tile returns tile i's M² payload bytes (no padding), row-major.
func (s *Store) Tile(i int) []uint8 {
	off := i * s.Stride
	return s.Pix[off : off+s.M*s.M : off+s.M*s.M]
}

// TilePadded returns tile i's full padded block (Stride bytes, zero tail).
// The kernels stream this form: same error sum, aligned length.
func (s *Store) TilePadded(i int) []uint8 {
	off := i * s.Stride
	return s.Pix[off : off+s.Stride : off+s.Stride]
}

// TileHist returns tile i's 256-bin histogram.
func (s *Store) TileHist(i int) []uint32 {
	return s.Hist[i*histBins : (i+1)*histBins]
}

// TileThumb returns tile i's ThumbDim² thumbnail feature vector.
func (s *Store) TileThumb(i int) []uint8 {
	n := s.ThumbDim * s.ThumbDim
	return s.Thumb[i*n : (i+1)*n]
}

// Mean returns tile i's mean intensity (truncating integer division, the
// scalar-recomputable convention the fuzz oracle checks).
func (s *Store) Mean(i int) uint8 {
	return uint8(s.Sum[i] / int64(s.M*s.M))
}

// GlobalHistogram sums the per-tile histograms into the image's histogram —
// exactly hist.Of of the source image, since the tiles partition it.
func (s *Store) GlobalHistogram() hist.Histogram {
	var h hist.Histogram
	for i := 0; i < s.S(); i++ {
		th := s.TileHist(i)
		for v := 0; v < histBins; v++ {
			h[v] += int64(th[v])
		}
	}
	return h
}

// MemoryBytes returns the resident size of the store's buffers — the weight
// serving caches charge for the shared artifact.
func (s *Store) MemoryBytes() int64 {
	return int64(len(s.Pix)) + 8*int64(len(s.Sum)) + 4*int64(len(s.Hist)) + int64(len(s.Thumb))
}

// newStore allocates an empty store for the given grid geometry.
func newStore(m, cols, rows int) *Store {
	lay := LayoutFor(m)
	s := cols * rows
	return &Store{
		M:        m,
		Cols:     cols,
		Rows:     rows,
		Stride:   lay.Stride,
		Pix:      make([]uint8, s*lay.Stride),
		Sum:      make([]int64, s),
		Hist:     make([]uint32, s*histBins),
		Thumb:    make([]uint8, s*lay.ThumbSide*lay.ThumbSide),
		ThumbDim: lay.ThumbSide,
	}
}

// thumbPlan precomputes, for tile side m and thumbnail side td, each pixel
// row/column's destination cell and each cell's pixel count. Cell mapping is
// c = x·td/m (integer), so non-divisible sides distribute remainder pixels
// deterministically — the same formula the scalar oracle uses.
type thumbPlan struct {
	cell   []int   // cell index per pixel coordinate (length m)
	counts []int64 // pixels per cell (length td²), product of row/col counts
}

func newThumbPlan(m, td int) thumbPlan {
	p := thumbPlan{cell: make([]int, m), counts: make([]int64, td*td)}
	axis := make([]int64, td)
	for x := 0; x < m; x++ {
		c := x * td / m
		p.cell[x] = c
		axis[c]++
	}
	for cy := 0; cy < td; cy++ {
		for cx := 0; cx < td; cx++ {
			p.counts[cy*td+cx] = axis[cy] * axis[cx]
		}
	}
	return p
}

// gather runs the single fused pass: for every tile it copies the (optionally
// LUT-mapped) pixels into the padded block, and accumulates sum, histogram
// and thumbnail cell sums from the bytes it just wrote. rowAt returns source
// row r of tile i; sink, when non-nil, additionally receives the mapped row
// (the fused histogram-matched image of GatherLUT).
func (s *Store) gather(rowAt func(i, r int) []uint8, lut *[256]uint8, sink func(i, r int, row []uint8)) {
	m := s.M
	td := s.ThumbDim
	plan := newThumbPlan(m, td)
	cellSum := make([]int64, td*td)
	for i := 0; i < s.S(); i++ {
		block := s.Pix[i*s.Stride : i*s.Stride+m*m]
		th := s.TileHist(i)
		var sum int64
		for c := range cellSum {
			cellSum[c] = 0
		}
		for r := 0; r < m; r++ {
			src := rowAt(i, r)
			dst := block[r*m : (r+1)*m]
			if lut != nil {
				for x, p := range src {
					dst[x] = lut[p]
				}
			} else {
				copy(dst, src)
			}
			rowCells := cellSum[plan.cell[r]*td : (plan.cell[r]+1)*td]
			for x, p := range dst {
				sum += int64(p)
				th[p]++
				rowCells[plan.cell[x]] += int64(p)
			}
			if sink != nil {
				sink(i, r, dst)
			}
		}
		s.Sum[i] = sum
		thumb := s.TileThumb(i)
		for c, cs := range cellSum {
			thumb[c] = uint8(cs / plan.counts[c])
		}
	}
}

// FromGrid builds the store from an existing grid in one fused
// gather-and-stats pass. The grid's image is not retained.
func FromGrid(g *tile.Grid) *Store {
	s := newStore(g.M, g.Cols, g.Rows)
	s.gather(g.Row, nil, nil)
	return s
}

// FromImage builds the store directly from an image divided into m×m tiles,
// with the same geometry validation as tile.NewGrid.
func FromImage(img *imgutil.Gray, m int) (*Store, error) {
	g, err := tile.NewGrid(img, m)
	if err != nil {
		return nil, err
	}
	return FromGrid(g), nil
}

// GatherLUT is the fused §II + Step-1 pass: it maps img through lut (the
// histogram-matching table), writing the matched image AND gathering its
// tiles into a store — with per-tile stats — in a single traversal. The
// returned image is byte-identical to hist.Match's output for the same LUT;
// the returned store equals FromImage of that image.
func GatherLUT(img *imgutil.Gray, m int, lut [256]uint8) (*Store, *imgutil.Gray, error) {
	g, err := tile.NewGrid(img, m)
	if err != nil {
		return nil, nil, err
	}
	matched := imgutil.NewGray(img.W, img.H)
	s := newStore(g.M, g.Cols, g.Rows)
	s.gather(g.Row, &lut, func(i, r int, row []uint8) {
		x, y := g.Origin(i)
		copy(matched.Pix[(y+r)*matched.W+x:], row)
	})
	return s, matched, nil
}

// Scatter reconstructs the source image from the stored tile blocks — the
// inverse of the gather, exact byte for byte (the round-trip contract the
// fuzz target pins).
func (s *Store) Scatter() *imgutil.Gray {
	out := imgutil.NewGray(s.Cols*s.M, s.Rows*s.M)
	m := s.M
	for i := 0; i < s.S(); i++ {
		x := (i % s.Cols) * m
		y := (i / s.Cols) * m
		block := s.Tile(i)
		for r := 0; r < m; r++ {
			copy(out.Pix[(y+r)*out.W+x:(y+r)*out.W+x+m], block[r*m:(r+1)*m])
		}
	}
	return out
}
