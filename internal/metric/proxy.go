package metric

import (
	"fmt"

	"repro/internal/tilestore"
)

// BuildProxy computes an approximate cost matrix from d×d box-downsampled
// tile descriptors instead of full M×M tiles, cutting Step 2 from O(S²M²)
// to O(S²d²).
//
// This is the acceleration used by the database-driven photomosaic systems
// the paper cites ([19], [20] match tiles at reduced resolution); it is not
// part of the paper's method, and the ablation bench quantifies what the
// shortcut costs in mosaic quality. Proxy costs are scaled by (M/d)² so
// totals are comparable to the exact matrix's magnitude. d must divide M.
// Grayscale stores only.
func BuildProxy(in, tgt *tilestore.Store, met Metric, d int) (*Matrix, error) {
	s, err := checkGrayStores(in, tgt, met)
	if err != nil {
		return nil, err
	}
	if d <= 0 || d > in.M || in.M%d != 0 {
		return nil, fmt.Errorf("metric: proxy resolution %d must divide tile side %d: %w", d, in.M, ErrMismatch)
	}
	din := descriptors(in, d)
	dtgt := descriptors(tgt, d)
	// Box means preserve intensity scale, so per-sample errors are scaled by
	// the number of represented pixels to approximate the full-resolution
	// magnitude. For L2 the scale applies to the squared term's count, not
	// its square, matching E[Σd²] under a piecewise-constant model.
	scale := int64(in.M / d)
	scale *= scale
	d2 := d * d
	out := NewMatrix(s)
	for u := 0; u < s; u++ {
		du := din[u*d2 : (u+1)*d2]
		row := out.Row(u)
		for v := 0; v < s; v++ {
			dv := dtgt[v*d2 : (v+1)*d2]
			var sum int64
			if met == L2 {
				for i, p := range du {
					diff := int64(p) - int64(dv[i])
					sum += diff * diff
				}
			} else {
				for i, p := range du {
					diff := int64(p) - int64(dv[i])
					if diff < 0 {
						diff = -diff
					}
					sum += diff
				}
			}
			row[v] = Cost(sum * scale)
		}
	}
	return out, nil
}

// descriptors box-downsamples every tile of st to d×d, returning all
// descriptors concatenated (tile i at [i·d², (i+1)·d²)).
func descriptors(st *tilestore.Store, d int) []uint8 {
	s := st.S()
	m := st.M
	k := m / d // box side
	area := k * k
	d2 := d * d
	out := make([]uint8, s*d2)
	for i := 0; i < s; i++ {
		desc := out[i*d2 : (i+1)*d2]
		t := st.Tile(i)
		for by := 0; by < d; by++ {
			for bx := 0; bx < d; bx++ {
				var sum int
				for y := by * k; y < (by+1)*k; y++ {
					row := t[y*m : (y+1)*m]
					for x := bx * k; x < (bx+1)*k; x++ {
						sum += int(row[x])
					}
				}
				desc[by*d+bx] = uint8((sum + area/2) / area)
			}
		}
	}
	return out
}
