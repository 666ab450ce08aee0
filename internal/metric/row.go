// The Step-2 L1 row kernel: one input tile against a run of contiguous
// target blocks, writing one cost per target. This is the inner loop of the
// paper's first GPU kernel (§V) — block u stages input tile u and produces
// row u of the S×S matrix — expressed as a single call per row instead of one
// TileError dispatch per entry. On amd64 it is the SSE2 PSADBW kernel in
// row_amd64.s; elsewhere it is tileErrorL1RowGo over the SWAR kernel.
package metric

import (
	"fmt"

	"repro/internal/tilestore"
)

// tileErrorL1Row sets out[v] = Σᵢ|a[i] − tgtPix[v·stride+i]| over the first
// stride bytes of a, for every v < len(out). stride must be a non-negative
// multiple of tilestore.PadAlign — the padded block size of a tile store, so
// the kernel streams whole 32-byte chunks with no tail — and the slices must
// hold one input block and len(out) target blocks. Results are bit-identical
// to TileError on each pair (FuzzTileErrorRow enforces it against
// TileErrorScalar).
func tileErrorL1Row(a, tgtPix []uint8, stride int, out []Cost) {
	if stride < 0 || stride%tilestore.PadAlign != 0 || len(a) < stride || len(tgtPix) < len(out)*stride {
		panic(fmt.Sprintf("metric: tileErrorL1Row on stride %d with %d input and %d target bytes for %d costs",
			stride, len(a), len(tgtPix), len(out)))
	}
	if stride == 0 {
		clear(out)
		return
	}
	tileErrorL1RowKernel(a[:stride], tgtPix[:len(out)*stride], stride, out)
}

// tileErrorL1RowGo is the portable row loop: one SWAR tile error per target.
// It is the row kernel on architectures without an assembly version and the
// second implementation the row fuzz target checks on amd64.
func tileErrorL1RowGo(a, tgtPix []uint8, stride int, out []Cost) {
	for v := range out {
		out[v] = Cost(tileErrorL1SWAR(a, tgtPix[v*stride:(v+1)*stride]))
	}
}
