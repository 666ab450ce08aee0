package metric

import (
	"testing"

	"repro/internal/tilestore"
)

// maxRowStride is the padded block size of the largest tile Cost admits.
const maxRowStride = (MaxTileSide*MaxTileSide + tilestore.PadAlign - 1) / tilestore.PadAlign * tilestore.PadAlign

// FuzzTileErrorRow differentially tests the row kernels: every entry of the
// assembly row kernel (tileErrorL1Row) and of the portable Go row loop must
// equal TileErrorScalar on the same pair. Input and target bytes repeat the
// fuzzed patterns; strides are multiples of PadAlign up to maxRowStride;
// the input block starts at an arbitrary byte offset so unaligned staging
// buffers are covered.
func FuzzTileErrorRow(f *testing.F) {
	const units = maxRowStride / tilestore.PadAlign
	// All-0 against all-255 at the largest stride: the no-overflow bound.
	f.Add([]byte{0}, []byte{255}, uint16(units), uint8(3), uint8(5))
	f.Add([]byte{255}, []byte{0}, uint16(units), uint8(1), uint8(0))
	f.Add([]byte{1, 2, 3}, []byte{9, 200, 7, 0, 255}, uint16(8), uint8(12), uint8(17))
	f.Add([]byte{}, []byte{}, uint16(1), uint8(0), uint8(31))
	f.Fuzz(func(t *testing.T, inPat, tgtPat []byte, strideUnits uint16, targets, offset uint8) {
		stride := int(strideUnits) % (units + 1) * tilestore.PadAlign
		n := 1 + int(targets)%16
		buf := make([]uint8, int(offset)+stride)
		a := buf[offset:]
		fill(a, inPat)
		tgt := make([]uint8, n*stride)
		fill(tgt, tgtPat)

		got := make([]Cost, n)
		tileErrorL1Row(a, tgt, stride, got)
		gotGo := make([]Cost, n)
		tileErrorL1RowGo(a, tgt, stride, gotGo)
		for v := 0; v < n; v++ {
			want := TileErrorScalar(a, tgt[v*stride:(v+1)*stride], L1)
			if got[v] != want {
				t.Fatalf("stride %d offset %d target %d/%d: row kernel %d != scalar %d", stride, offset, v, n, got[v], want)
			}
			if gotGo[v] != want {
				t.Fatalf("stride %d offset %d target %d/%d: Go row loop %d != scalar %d", stride, offset, v, n, gotGo[v], want)
			}
		}
	})
}

// fill repeats pat over dst (zeros when pat is empty), offsetting each
// repetition by its index so short patterns do not stay periodic in 32.
func fill(dst, pat []uint8) {
	if len(pat) == 0 {
		clear(dst)
		return
	}
	for i := range dst {
		dst[i] = pat[i%len(pat)] + uint8(i/len(pat))*uint8(len(pat)>>1)
	}
}

// TestTileErrorRowRejectsBadShape pins the bounds tileErrorL1Row checks
// before the assembly reads memory.
func TestTileErrorRowRejectsBadShape(t *testing.T) {
	for _, tc := range []struct {
		name              string
		a, tgt, stride, n int
	}{
		{"stride not a multiple of PadAlign", 48, 96, 48, 2},
		{"short input", 31, 64, 32, 2},
		{"short targets", 32, 63, 32, 2},
		{"negative stride", 32, 64, -32, 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tileErrorL1Row(make([]uint8, tc.a), make([]uint8, tc.tgt), tc.stride, make([]Cost, tc.n))
		}()
	}
}
