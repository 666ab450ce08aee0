package localsearch

import (
	"repro/internal/edgecolor"
	"repro/internal/metric"
	"repro/internal/perm"
)

// sweepPad is the row padding of the column-major copy. With a power-of-two
// S an unpadded stride of S costs puts every entry of a column walk in the
// same cache set; 16 extra costs (one 64-byte line) spread them out.
const sweepPad = 16

// transposeBlock is the tile edge of the blocked transpose that builds the
// column-major copy: a 32×32 block of int32 costs is 4 KiB on each side, so
// both the rows read and the rows written stay in L1.
const transposeBlock = 32

// sweep is the state every swap test of a run reads: the assignment p, its
// diagonal cur[v] = W[p[v]][v] (so the keep side of a test reads no matrix
// entry), and a view col of the matrix columns, col[x*xs+u*us] = W[u][x].
// For the searches that test pairs in row order the view is a column-major
// copy with the padded stride xs = S+sweepPad and us = 1: the column read
// W[p[y]][x] becomes a gather inside one cache-resident row. Random-order
// searches view the row-major matrix itself (xs = 1, us = S).
type sweep struct {
	s      int
	p      perm.Perm
	w      []metric.Cost // row-major matrix: w[u*s+v] = E(I_u, T_v)
	cur    []metric.Cost // cur[v] = w[p[v]*s+v]
	col    []metric.Cost // col[x*xs+u*us] = w[u*s+x]
	xs, us int
}

// newSweep builds the state of a run over m from assignment p, which the
// sweep then owns and updates in place. columns selects the column-major
// copy, which costs S·(S+sweepPad) costs of memory for the run.
func newSweep(m *metric.Matrix, p perm.Perm, columns bool) *sweep {
	s := m.S
	sw := &sweep{s: s, p: p, w: m.W, cur: make([]metric.Cost, s), col: m.W, xs: 1, us: s}
	for v, u := range p {
		sw.cur[v] = m.W[u*s+v]
	}
	if !columns {
		return sw
	}
	xs := s + sweepPad
	col := make([]metric.Cost, s*xs)
	for u0 := 0; u0 < s; u0 += transposeBlock {
		u1 := min(u0+transposeBlock, s)
		for v0 := 0; v0 < s; v0 += transposeBlock {
			v1 := min(v0+transposeBlock, s)
			for u := u0; u < u1; u++ {
				i := v0*xs + u
				for _, c := range m.W[u*s+v0 : u*s+v1] {
					col[i] = c
					i += xs
				}
			}
		}
	}
	sw.col, sw.xs, sw.us = col, xs, 1
	return sw
}

// delta returns the change in Eq. (2) error that exchanging the tiles at x
// and y would make, and the cross costs E(I_{p[y]}, T_x), E(I_{p[x]}, T_y)
// to pass to apply. Algorithm 1's test swaps exactly when delta < 0, i.e.
// E(I_{p[x]},T_x)+E(I_{p[y]},T_y) > E(I_{p[y]},T_x)+E(I_{p[x]},T_y).
func (sw *sweep) delta(x, y int) (d int64, cx, cy metric.Cost) {
	cx, cy = sw.col[x*sw.xs+sw.p[y]*sw.us], sw.w[sw.p[x]*sw.s+y]
	return int64(cx) + int64(cy) - int64(sw.cur[x]) - int64(sw.cur[y]), cx, cy
}

// apply exchanges the tiles at x and y; cx and cy are delta's cross costs.
func (sw *sweep) apply(x, y int, cx, cy metric.Cost) {
	sw.p[x], sw.p[y] = sw.p[y], sw.p[x]
	sw.cur[x], sw.cur[y] = cx, cy
}

// row runs the tests of pairs (x, y), y = x+1..S−1, in order, applying each
// improving swap at once as Algorithm 1 does, and returns the number of
// swaps and their summed error change. It needs the column-major copy.
func (sw *sweep) row(x int) (swaps, delta int64) {
	p, w := sw.p, sw.w
	s := len(p)
	cur := sw.cur[:s]
	colx := sw.col[x*sw.xs:][:s]
	for y := x + 1; y < s; y++ {
		// Scan to the next improving pair. Swaps are rare, so the scan
		// keeps only loop-invariant state live.
		px := p[x]
		wpx := w[px*s:][:s]
		cx := int64(cur[x])
		for ; y < s; y++ {
			if cx+int64(cur[y]) > int64(colx[p[y]])+int64(wpx[y]) {
				break
			}
		}
		if y == s {
			break
		}
		py := p[y]
		a, b := colx[py], wpx[y]
		delta += int64(a) + int64(b) - cx - int64(cur[y])
		swaps++
		p[x], p[y] = py, px
		cur[x], cur[y] = a, b
	}
	return swaps, delta
}

// classSweep is Algorithm 2's state: a sweep over the row-major matrix plus
// one change stamp per position. stamp[v] is the time at which p[v] last
// changed, where class c of sweep k runs at time k·classes + c + 1 and the
// start assignment is time 0.
//
// The stamps let a class skip pairs whose outcome is already known. A
// coloring runs its classes in a fixed order, so a pair of class c was last
// tested exactly one sweep earlier, at time prev = now − classes. The test
// reads nothing but p[x] and p[y]. If both stamps are older than prev, the
// pair did not swap then (a swap stamps both ends at prev) and neither end
// has changed since, so the test would fail again. In the first sweep prev
// ≤ 0 and every pair is tested.
type classSweep struct {
	*sweep
	stamp []int64
}

func newClassSweep(m *metric.Matrix, p perm.Perm) *classSweep {
	return &classSweep{sweep: newSweep(m, p, false), stamp: make([]int64, m.S)}
}

// blockScratch is the working set of one block of a color class: the
// indices of its live pairs and their two gathered cross costs, each
// pairsPerBlock long. The kernel carves it out of the block's shared memory.
type blockScratch = [3 * pairsPerBlock]int32

// block runs one block of a color class at time now: it tests the pairs
// not known to fail and applies each improving swap, returning the number
// of pairs tested and of swaps, and the swaps' summed error change. It is
// the whole of Algorithm 2's test-and-swap, shared by the device kernel and
// the host sweep, in three steps:
//
//  1. compact the indices of the live pairs (a stamp at or after prev)
//     into a fixed array, without a branch per pair;
//  2. gather both cross costs of every live pair, so the block's random
//     matrix reads are independent of each other;
//  3. test each live pair and apply its swap.
//
// Gathering before any swap is exact because the pairs of a class are
// vertex-disjoint: no swap of the block changes another pair's p[x], p[y].
// pairs holds at most pairsPerBlock pairs.
func (cs *classSweep) block(pairs []edgecolor.Pair, prev, now int64, sc *blockScratch) (tests, swaps, delta int64) {
	live := sc[:pairsPerBlock]
	cx, cy := sc[pairsPerBlock:2*pairsPerBlock], sc[2*pairsPerBlock:]
	stamp := cs.stamp
	n := 0
	for i, pr := range pairs {
		live[n] = int32(i)
		// Both stamps are older than prev exactly when both differences
		// are negative: the sign bit of their AND.
		n += int(^uint64((stamp[pr.U]-prev)&(stamp[pr.V]-prev)) >> 63)
	}
	p, w, cur, s := cs.p, cs.w, cs.cur, cs.s
	for j, i := range live[:n] {
		pr := pairs[i]
		cx[j] = w[p[pr.V]*s+pr.U]
		cy[j] = w[p[pr.U]*s+pr.V]
	}
	for j, i := range live[:n] {
		x, y := pairs[i].U, pairs[i].V
		if d := int64(cx[j]) + int64(cy[j]) - int64(cur[x]) - int64(cur[y]); d < 0 {
			p[x], p[y] = p[y], p[x]
			cur[x], cur[y] = cx[j], cy[j]
			stamp[x], stamp[y] = now, now
			swaps++
			delta += d
		}
	}
	return int64(n), swaps, delta
}
