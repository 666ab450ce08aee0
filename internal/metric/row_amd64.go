package metric

// tileErrorL1RowKernel is the SSE2 row kernel (row_amd64.s): per target, two
// 16-byte PSADBW lanes per 32 bytes into PADDQ accumulators and one
// horizontal add. SSE2 is part of the amd64 baseline, so no CPU feature
// check is needed. Callers go through tileErrorL1Row, which validates the
// slice bounds the assembly relies on: len(a) == stride, a positive multiple
// of 32, and len(tgtPix) == len(out)·stride.
//
//go:noescape
func tileErrorL1RowKernel(a, tgtPix []uint8, stride int, out []Cost)
