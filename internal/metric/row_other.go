//go:build !amd64

package metric

// tileErrorL1RowKernel is the portable row loop on architectures without an
// assembly row kernel.
func tileErrorL1RowKernel(a, tgtPix []uint8, stride int, out []Cost) {
	tileErrorL1RowGo(a, tgtPix, stride, out)
}
