package metric

import (
	"fmt"

	"repro/internal/perm"
	"repro/internal/tile"
)

// checkGrids validates that the input and target grids are comparable.
func checkGrids(in, tgt *tile.Grid) error {
	if in.M != tgt.M || in.Cols != tgt.Cols || in.Rows != tgt.Rows {
		return fmt.Errorf("metric: input %dx%d tiles of %d vs target %dx%d tiles of %d: %w",
			in.Cols, in.Rows, in.M, tgt.Cols, tgt.Rows, tgt.M, ErrMismatch)
	}
	if in.M > MaxTileSide {
		return fmt.Errorf("metric: tile side %d exceeds %d (Cost overflow): %w", in.M, MaxTileSide, ErrMismatch)
	}
	return nil
}

// AssignmentError evaluates Eq. (2) exactly for an assignment, directly from
// the tile pixels in O(S·M²) — one matrix row's worth of work. Used when
// Step 3 ran on an approximate (proxy) matrix and the reported error must
// still be the true one.
func AssignmentError(in, tgt *tile.Grid, p perm.Perm, met Metric) (int64, error) {
	if err := checkGrids(in, tgt); err != nil {
		return 0, err
	}
	if !met.Valid() {
		return 0, fmt.Errorf("metric: invalid metric %v", met)
	}
	if len(p) != in.S() {
		return 0, fmt.Errorf("metric: %d-element assignment for S = %d: %w", len(p), in.S(), ErrMismatch)
	}
	if err := p.Validate(); err != nil {
		return 0, err
	}
	m2 := in.M * in.M
	fin := in.Flatten()
	ftgt := tgt.Flatten()
	var sum int64
	for v, u := range p {
		sum += int64(TileError(fin[u*m2:(u+1)*m2], ftgt[v*m2:(v+1)*m2], met))
	}
	return sum, nil
}
