package metric

import (
	"fmt"

	"repro/internal/imgutil"
	"repro/internal/perm"
)

// OrientedMatrix extends the cost matrix with, per (input tile, target
// position) pair, the dihedral orientation of the input tile that minimises
// Eq. (1). This is the rotation/mirror extension described in DESIGN.md: the
// paper places tiles upright; allowing the eight orientations of the square
// strictly enlarges the search space, so the optimal oriented mosaic is
// never worse. W holds the minimised costs (so every Step-3 algorithm works
// unchanged) and Orient[u*S+v] records the minimising orientation.
type OrientedMatrix struct {
	Matrix
	Orient []imgutil.Orientation
}

// BestOrientation returns the orientation achieving At(u, v).
func (m *OrientedMatrix) BestOrientation(u, v int) imgutil.Orientation {
	return m.Orient[u*m.S+v]
}

// orientedTileError scores tile a (flattened m×m) against tile b under
// orientation o of a, without materialising the oriented tile.
func orientedTileError(a, b []uint8, m int, o imgutil.Orientation, met Metric) Cost {
	if o == imgutil.Upright {
		return TileError(a, b, met)
	}
	var sum int64
	i := 0
	switch met {
	case L2:
		for y := 0; y < m; y++ {
			for x := 0; x < m; x++ {
				d := int64(a[imgutil.OrientIndex(o, m, x, y)]) - int64(b[i])
				sum += d * d
				i++
			}
		}
	default:
		for y := 0; y < m; y++ {
			for x := 0; x < m; x++ {
				d := int64(a[imgutil.OrientIndex(o, m, x, y)]) - int64(b[i])
				if d < 0 {
					d = -d
				}
				sum += d
				i++
			}
		}
	}
	return Cost(sum)
}

// Orientations extracts, for an assignment p, the per-position orientation
// vector tile.Grid.AssembleOriented consumes: position v gets the best
// orientation of the tile p[v] placed there.
func (m *OrientedMatrix) Orientations(p perm.Perm) ([]imgutil.Orientation, error) {
	if len(p) != m.S {
		return nil, fmt.Errorf("metric: %d-element assignment for S = %d: %w", len(p), m.S, ErrMismatch)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	out := make([]imgutil.Orientation, m.S)
	for v, u := range p {
		out[v] = m.Orient[u*m.S+v]
	}
	return out, nil
}
