// Package metric implements the paper's tile error function and the S×S
// cost matrix of Step 2.
//
// Eq. (1) defines the error between input tile I_u and target tile T_v as
// the sum of absolute per-pixel differences; Eq. (2) sums E(r(I_u), T_u)
// over all positions. The S×S matrix of all pairwise errors is the weight
// matrix of the bipartite matching reduction (§III) and the lookup table of
// the local search (§IV), and computing it is the paper's first GPU target
// (§V): S blocks, block u staging tile I_u in shared memory and producing
// row u of the matrix.
package metric

import (
	"errors"
	"fmt"

	"repro/internal/perm"
)

// ErrMismatch reports tile stores or grids whose geometry prevents comparing
// tiles.
var ErrMismatch = errors.New("metric: grid geometry mismatch")

// Metric selects the per-pixel error accumulated by Eq. (1).
type Metric int

// Supported per-pixel error functions.
const (
	// L1 is the paper's Σ|e_ij| (sum of absolute differences).
	L1 Metric = iota
	// L2 is the sum of squared differences, the usual alternative; the
	// paper notes the method only depends on the error function.
	L2
)

// String names the metric.
func (m Metric) String() string {
	switch m {
	case L1:
		return "L1"
	case L2:
		return "L2"
	}
	return fmt.Sprintf("Metric(%d)", int(m))
}

// Valid reports whether m is a known metric.
func (m Metric) Valid() bool { return m == L1 || m == L2 }

// Cost is a single tile-pair error. For M ≤ 181 even L2 fits: the worst case
// is M²·255² = 181²·65025 < 2³¹.
type Cost = int32

// MaxTileSide bounds M so that a single tile error cannot overflow Cost
// under either metric.
const MaxTileSide = 181

// MaxTileSideRGB bounds M for colour tiles: the worst-case L2 tile error is
// 3·M²·255², which must fit in Cost.
const MaxTileSideRGB = 104

// TileError computes Eq. (1) between two flattened tiles of equal length.
// Tiles of at least swarMinBytes pixels take the SWAR word-at-a-time path
// (see swar.go); the result is bit-identical to TileErrorScalar on every
// input, which the differential fuzz target FuzzTileErrorSWAR enforces.
func TileError(a, b []uint8, m Metric) Cost {
	if len(a) != len(b) {
		panic(fmt.Sprintf("metric: TileError on %d vs %d pixels", len(a), len(b)))
	}
	if len(a) >= swarMinBytes {
		if m == L2 {
			return Cost(tileErrorL2SWAR(a, b))
		}
		return Cost(tileErrorL1SWAR(a, b))
	}
	return TileErrorScalar(a, b, m)
}

// TileErrorScalar is the byte-at-a-time transcription of Eq. (1) — the
// reference oracle the vectorized kernels and the matrix builders are
// differentially tested against.
func TileErrorScalar(a, b []uint8, m Metric) Cost {
	if len(a) != len(b) {
		panic(fmt.Sprintf("metric: TileErrorScalar on %d vs %d pixels", len(a), len(b)))
	}
	switch m {
	case L2:
		var sum int64
		for i, p := range a {
			d := int64(p) - int64(b[i])
			sum += d * d
		}
		return Cost(sum)
	default:
		var sum int64
		for i, p := range a {
			d := int64(p) - int64(b[i])
			if d < 0 {
				d = -d
			}
			sum += d
		}
		return Cost(sum)
	}
}

// Matrix is the dense S×S cost matrix: At(u, v) = E(I_u, T_v), input tile u
// against target position v, row-major by u.
type Matrix struct {
	S int
	W []Cost
}

// NewMatrix allocates a zero S×S matrix.
func NewMatrix(s int) *Matrix {
	if s <= 0 {
		panic(fmt.Sprintf("metric: NewMatrix(%d)", s))
	}
	return &Matrix{S: s, W: make([]Cost, s*s)}
}

// At returns E(I_u, T_v).
func (m *Matrix) At(u, v int) Cost { return m.W[u*m.S+v] }

// Set writes E(I_u, T_v).
func (m *Matrix) Set(u, v int, c Cost) { m.W[u*m.S+v] = c }

// Row returns row u (errors of input tile u against every target position).
func (m *Matrix) Row(u int) []Cost { return m.W[u*m.S : (u+1)*m.S] }

// Total evaluates Eq. (2) for rearrangement p: Σ_v E(I_{p[v]}, T_v).
// p must have length S.
func (m *Matrix) Total(p perm.Perm) int64 {
	if len(p) != m.S {
		panic(fmt.Sprintf("metric: Total with %d-element permutation on S=%d", len(p), m.S))
	}
	var sum int64
	for v, u := range p {
		sum += int64(m.W[u*m.S+v])
	}
	return sum
}

// Equal reports whether two matrices are identical (used by tests to check
// that every builder computes the same Step-2 result).
func (m *Matrix) Equal(o *Matrix) bool {
	if m.S != o.S {
		return false
	}
	for i, w := range m.W {
		if o.W[i] != w {
			return false
		}
	}
	return true
}

// Cache-blocking budgets for BuildStoreBlocked. The target-tile panel is sized to
// stay resident in L2 while every input row of the block streams over it;
// the input panel keeps a handful of tiles hot in L1. Both are byte budgets
// divided by the tile size at run time, so small tiles get wide panels and
// 181×181 tiles degrade gracefully to a few tiles per panel.
const (
	blockedTargetBytes = 128 << 10
	blockedInputBytes  = 16 << 10
)

// blockSpan converts a byte budget into a tile-count block side for m2-byte
// tiles, clamped to [1, s].
func blockSpan(budget, m2, s int) int {
	b := budget / m2
	if b < 1 {
		b = 1
	}
	if b > s {
		b = s
	}
	return b
}

// KernelCostMatrix is the name BuildStoreDevice's §V kernel launches under,
// exported so fault plans (cuda.FaultPlan.Kernel) can target Step 2.
const KernelCostMatrix = "cost-matrix"

// Builder is the Step-2 strategy argument of BuildStore. BuilderAuto is its
// only value: the execution target follows from whether a device is
// supplied — the §V kernel (BuildStoreDevice) on a device, the cache-blocked
// host loop (BuildStoreBlocked) without one.
type Builder string

// BuilderAuto picks the device kernel when a device is supplied and the
// host loop otherwise.
const BuilderAuto Builder = ""
