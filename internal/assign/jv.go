package assign

import (
	"context"
	"math"

	"repro/internal/perm"
)

// JV solves the LAP exactly with the Jonker–Volgenant algorithm (1987), the
// standard fast dense solver: a column-reduction pass, a reduction-transfer
// pass and two augmenting-row-reduction sweeps assign most rows in O(n²),
// and only the remaining free rows pay for a Dijkstra-style shortest
// augmenting path. Worst case O(n³) like Hungarian, but typically several
// times faster on the dense tile-error matrices of this workload — the same
// reason the paper picked Blossom V over a textbook implementation.
func JV(n int, w []Cost) (perm.Perm, error) {
	return jv(nil, n, w)
}

// JVContext is JV with cancellation: the context is polled at the
// algorithm's O(n)-work boundaries (per reduced column, per augmenting-row
// pass, per Dijkstra scan step), strided so the polls stay off the profile.
func JVContext(ctx context.Context, n int, w []Cost) (perm.Perm, error) {
	return jv(ctx, n, w)
}

func jv(ctx context.Context, n int, w []Cost) (perm.Perm, error) {
	if err := checkInput(n, w); err != nil {
		return nil, err
	}
	cp := checkpoints{ctx: ctx, stride: 64, what: "jv"}
	if n == 1 {
		// The reduction passes assume a second column exists; the 1×1
		// problem has exactly one solution anyway.
		return perm.Perm{0}, nil
	}
	const inf = math.MaxInt64

	rowsol := make([]int, n) // column assigned to each row (-1 = free)
	colsol := make([]int, n) // row assigned to each column (-1 = free)
	v := make([]int64, n)    // column prices (dual variables)
	free := make([]int, n)   // rows awaiting assignment
	for i := range rowsol {
		rowsol[i] = -1
	}
	for j := range colsol {
		colsol[j] = -1
	}

	// --- Column reduction. One row-major pass finds each column's minimum
	// and its lowest minimising row (strict <, so low-index rows win ties);
	// then the columns are assigned high→low, as in the reference
	// implementation.
	matches := make([]int, n)
	imin := make([]int, n) // lowest row at column j's minimum
	for j, c := range w[:n] {
		v[j] = int64(c) // cost[0][j]
	}
	for i := 1; i < n; i++ {
		if err := cp.visit(); err != nil {
			return nil, err
		}
		for j, c := range w[i*n : (i+1)*n] {
			if int64(c) < v[j] {
				v[j] = int64(c)
				imin[j] = i
			}
		}
	}
	for j := n - 1; j >= 0; j-- {
		i := imin[j]
		matches[i]++
		if matches[i] == 1 {
			rowsol[i] = j
			colsol[j] = i
		}
	}

	// --- Reduction transfer for rows that won exactly one column; collect
	// unassigned rows.
	numfree := 0
	for i := 0; i < n; i++ {
		switch matches[i] {
		case 0:
			free[numfree] = i
			numfree++
		case 1:
			j1 := rowsol[i]
			min := int64(inf)
			row := w[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				if j != j1 {
					if c := int64(row[j]) - v[j]; c < min {
						min = c
					}
				}
			}
			v[j1] -= min
		}
	}

	// --- Augmenting row reduction, two sweeps: try to assign each free row
	// to its cheapest reduced-cost column, bumping the previous owner when
	// the two cheapest columns are strictly separated.
	for loop := 0; loop < 2; loop++ {
		k := 0
		prvnumfree := numfree
		numfree = 0
		for k < prvnumfree {
			if err := cp.visit(); err != nil {
				return nil, err
			}
			i := free[k]
			k++
			row := w[i*n : (i+1)*n]
			umin := int64(row[0]) - v[0]
			j1 := 0
			usubmin := int64(inf)
			j2 := -1
			for j := 1; j < n; j++ {
				h := int64(row[j]) - v[j]
				if h < usubmin {
					if h >= umin {
						usubmin = h
						j2 = j
					} else {
						usubmin = umin
						j2 = j1
						umin = h
						j1 = j
					}
				}
			}
			i0 := colsol[j1]
			if umin < usubmin {
				// j1 is strictly cheapest: lower its price so the bumped row
				// still finds an alternative.
				v[j1] -= usubmin - umin
			} else if i0 >= 0 {
				// Tie: take the second-best column instead to avoid cycling.
				j1 = j2
				i0 = colsol[j1]
			}
			rowsol[i] = j1
			colsol[j1] = i
			if i0 >= 0 {
				if umin < usubmin {
					// Re-examine the bumped row immediately.
					k--
					free[k] = i0
				} else {
					free[numfree] = i0
					numfree++
				}
			}
		}
	}

	// --- Augmentation: shortest augmenting path (Dijkstra over reduced
	// costs) for each remaining free row.
	d := make([]int64, n)
	pred := make([]int, n)
	collist := make([]int, n)
	for f := 0; f < numfree; f++ {
		freerow := free[f]
		row := w[freerow*n : (freerow+1)*n]
		for j := 0; j < n; j++ {
			d[j] = int64(row[j]) - v[j]
			pred[j] = freerow
			collist[j] = j
		}
		// collist[0..low-1]: columns with final distance (scanned);
		// collist[low..up-1]: columns at the current minimum (to scan);
		// collist[up..n-1]: unreached columns.
		low, up := 0, 0
		min := int64(0)
		endofpath := -1
		last := 0
		for endofpath < 0 {
			if err := cp.visit(); err != nil {
				return nil, err
			}
			if up == low {
				last = low - 1
				min = d[collist[up]]
				up++
				for k := up; k < n; k++ {
					j := collist[k]
					h := d[j]
					if h <= min {
						if h < min {
							up = low
							min = h
						}
						collist[k] = collist[up]
						collist[up] = j
						up++
					}
				}
				for k := low; k < up; k++ {
					if j := collist[k]; colsol[j] < 0 {
						endofpath = j
						break
					}
				}
			}
			if endofpath >= 0 {
				break
			}
			j1 := collist[low]
			low++
			i := colsol[j1]
			irow := w[i*n : (i+1)*n]
			h := int64(irow[j1]) - v[j1] - min
			for k := up; k < n; k++ {
				j := collist[k]
				v2 := int64(irow[j]) - v[j] - h
				if v2 < d[j] {
					pred[j] = i
					if v2 == min {
						if colsol[j] < 0 {
							endofpath = j
							break
						}
						collist[k] = collist[up]
						collist[up] = j
						up++
					}
					d[j] = v2
				}
			}
		}
		// Price update for scanned columns.
		for k := 0; k <= last; k++ {
			j1 := collist[k]
			v[j1] += d[j1] - min
		}
		// Flip the augmenting path.
		for {
			i := pred[endofpath]
			colsol[endofpath] = i
			endofpath, rowsol[i] = rowsol[i], endofpath
			if i == freerow {
				break
			}
		}
	}

	p := make(perm.Perm, n)
	copy(p, colsol)
	return p, nil
}
