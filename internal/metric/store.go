// The Step-2 builders, all streaming the columnar tile store: one per
// execution target — BuildStoreBlocked on the host, BuildStoreDevice (and
// its fault-aware BuildStoreDeviceContext) as the paper's §V kernel — plus
// the oriented variants and BuildProxy (proxy.go).
//
// A tilestore.Store holds every tile as a contiguous zero-padded block, so
// the builders read the flat buffer linearly — no gather per build, no row
// arithmetic in the inner loop. The kernels run over the padded blocks
// (tilestore.Store.TilePadded): the padding is zero on both sides of every
// comparison, contributes |0−0| = 0 under either metric, and keeps every
// kernel iteration on whole 32-byte chunks. Under L1 each matrix row (or row
// panel) is one tileErrorL1Row call over the contiguous target blocks; L2
// stays one SWAR TileError per entry. Grayscale and colour stores take the
// same path: a colour block is the tile's interleaved RGB bytes, so the
// byte-wise error is the summed per-channel error of Eq. (1). Every builder
// is bit-identical to a crop-and-score oracle built on TileErrorScalar, which
// TestTileStoreBuildersEquivalent enforces over randomized scenes.
package metric

import (
	"context"
	"fmt"

	"repro/internal/cuda"
	"repro/internal/imgutil"
	"repro/internal/tilestore"
)

// checkStores validates that two stores are comparable: same grid geometry
// and channel count, tile side within the Cost overflow bound. Equal M and
// Channels imply equal Stride.
func checkStores(in, tgt *tilestore.Store) error {
	if in.M != tgt.M || in.Cols != tgt.Cols || in.Rows != tgt.Rows || in.Channels != tgt.Channels {
		return fmt.Errorf("metric: input store %dx%d tiles of %d×%d×%d vs target %dx%d tiles of %d×%d×%d: %w",
			in.Cols, in.Rows, in.M, in.M, in.Channels, tgt.Cols, tgt.Rows, tgt.M, tgt.M, tgt.Channels, ErrMismatch)
	}
	maxSide := MaxTileSide
	if in.Channels > 1 {
		maxSide = MaxTileSideRGB
	}
	if in.M > maxSide {
		return fmt.Errorf("metric: tile side %d exceeds %d (Cost overflow): %w", in.M, maxSide, ErrMismatch)
	}
	return nil
}

// checkGrayStores is checkStores for the builders that index a tile's M×M
// pixel payload (orientations, proxy descriptors): grayscale stores only.
func checkGrayStores(in, tgt *tilestore.Store, m Metric) (s int, err error) {
	if in.Channels != 1 {
		return 0, fmt.Errorf("metric: %d-channel store, want grayscale: %w", in.Channels, ErrMismatch)
	}
	return storeSetup(in, tgt, m)
}

// storeSetup shares validation across the store builders.
func storeSetup(in, tgt *tilestore.Store, m Metric) (s int, err error) {
	if err := checkStores(in, tgt); err != nil {
		return 0, err
	}
	if !m.Valid() {
		return 0, fmt.Errorf("metric: invalid metric %v", m)
	}
	return in.S(), nil
}

// BuildStoreBlocked is the host builder — the paper's CPU column: a
// cache-blocked loop nest in which the S×S pair space is tiled into (input
// panel) × (target panel) blocks, so each target panel is loaded from
// memory once per input panel instead of once per input row. Panels are
// sized by the padded stride, so the resident working set is computed from
// what is actually streamed; the visit order changes nothing in the result.
func BuildStoreBlocked(in, tgt *tilestore.Store, m Metric) (*Matrix, error) {
	s, err := storeSetup(in, tgt, m)
	if err != nil {
		return nil, err
	}
	out := NewMatrix(s)
	bv := blockSpan(blockedTargetBytes, in.Stride, s)
	bu := blockSpan(blockedInputBytes, in.Stride, s)
	for v0 := 0; v0 < s; v0 += bv {
		v1 := v0 + bv
		if v1 > s {
			v1 = s
		}
		for u0 := 0; u0 < s; u0 += bu {
			u1 := u0 + bu
			if u1 > s {
				u1 = s
			}
			for u := u0; u < u1; u++ {
				storeRow(in.TilePadded(u), tgt, m, out.Row(u), v0, v1)
			}
		}
	}
	return out, nil
}

// storeRow fills row[v0:v1] with the costs of one padded input block tu
// against target tiles v0..v1−1: one row-kernel call over the contiguous
// target blocks under L1, one SWAR TileError per entry under L2.
func storeRow(tu []uint8, tgt *tilestore.Store, m Metric, row []Cost, v0, v1 int) {
	if m == L1 {
		tileErrorL1Row(tu, tgt.Pix[v0*tgt.Stride:v1*tgt.Stride], tgt.Stride, row[v0:v1])
		return
	}
	for v := v0; v < v1; v++ {
		row[v] = TileError(tu, tgt.TilePadded(v), m)
	}
}

// storeDeviceKernel returns the §V kernel body of the device builders:
// block u stages input tile u and computes row u of the matrix (the input
// tile against every target). The kernel fully overwrites its row, so
// re-launching after a failed (injected) attempt is idempotent — the
// property the retry layer relies on.
func storeDeviceKernel(in, tgt *tilestore.Store, m Metric, out *Matrix) func(b *cuda.Block) {
	stride := in.Stride
	return func(b *cuda.Block) {
		u := b.Idx
		// Stage the padded input block in shared memory (the paper's first
		// kernel phase). One bulk copy: the block's threads run serialised
		// on its worker, so a per-byte thread-stride copy would only add a
		// call per byte to the measured block time.
		sh := b.Shared(stride)
		copy(sh, in.TilePadded(u))
		storeRow(sh, tgt, m, out.Row(u), 0, out.S)
	}
}

// BuildStoreDevice is the paper's §V kernel decomposition: S blocks, block
// u staging tile u's padded block in shared memory and producing row u via
// a thread-stride loop over target tiles. One kernel launch, synchronous.
func BuildStoreDevice(dev *cuda.Device, in, tgt *tilestore.Store, m Metric) (*Matrix, error) {
	s, err := storeSetup(in, tgt, m)
	if err != nil {
		return nil, err
	}
	out := NewMatrix(s)
	dev.Launch(s, deviceThreads(s), storeDeviceKernel(in, tgt, m, out))
	return out, nil
}

// BuildStoreDeviceContext is BuildStoreDevice through the fault-aware launch
// path (typed errors such as cuda.ErrLaunchFailed instead of running the
// kernel, launch skipped when ctx is dead) — the variant the resilient
// Step-2 build retries. A healthy launch is bit-identical to
// BuildStoreDevice.
func BuildStoreDeviceContext(ctx context.Context, dev *cuda.Device, in, tgt *tilestore.Store, m Metric) (*Matrix, error) {
	s, err := storeSetup(in, tgt, m)
	if err != nil {
		return nil, err
	}
	out := NewMatrix(s)
	if err := dev.LaunchErr(ctx, KernelCostMatrix, s, deviceThreads(s), storeDeviceKernel(in, tgt, m, out)); err != nil {
		return nil, err
	}
	return out, nil
}

// deviceThreads is the threads-per-block of the Step-2 kernels: a
// CUDA-typical 256, capped at S. With a block's threads serialised on one
// worker the count only shapes the stride loops, but keeping the canonical
// configuration keeps the kernels faithful ports.
func deviceThreads(s int) int {
	return min(256, s)
}

// BuildStore builds the matrix on the execution target the arguments name:
// the §V kernel (BuildStoreDevice) when dev is non-nil, the host loop
// (BuildStoreBlocked) otherwise. b must be BuilderAuto.
func BuildStore(dev *cuda.Device, in, tgt *tilestore.Store, m Metric, b Builder) (*Matrix, error) {
	if b != BuilderAuto {
		return nil, fmt.Errorf("metric: unknown builder %q", b)
	}
	if dev != nil {
		return BuildStoreDevice(dev, in, tgt, m)
	}
	return BuildStoreBlocked(in, tgt, m)
}

// BuildOrientedStore computes the oriented cost matrix on the host: for each
// pair it scores all eight dihedral placements and keeps the best — roughly
// 8× the work of the upright matrix. It reads the unpadded tile views
// (orientation indexing is defined over the M×M payload, so the oriented
// kernels use Tile, not TilePadded; the upright case is the plain
// TileError). Grayscale stores only.
func BuildOrientedStore(in, tgt *tilestore.Store, met Metric) (*OrientedMatrix, error) {
	s, err := checkGrayStores(in, tgt, met)
	if err != nil {
		return nil, err
	}
	m := in.M
	out := &OrientedMatrix{
		Matrix: *NewMatrix(s),
		Orient: make([]imgutil.Orientation, s*s),
	}
	for u := 0; u < s; u++ {
		tu := in.Tile(u)
		row := out.Row(u)
		orow := out.Orient[u*s : (u+1)*s]
		for v := 0; v < s; v++ {
			tv := tgt.Tile(v)
			best := TileError(tu, tv, met)
			bestO := imgutil.Upright
			for o := imgutil.Orientation(1); o < imgutil.NumOrientations; o++ {
				if c := orientedTileError(tu, tv, m, o, met); c < best {
					best = c
					bestO = o
				}
			}
			row[v] = best
			orow[v] = bestO
		}
	}
	return out, nil
}

// BuildOrientedStoreDevice is BuildOrientedStore with the paper's Step-2
// kernel shape: S blocks, block u staging tile u in shared memory and
// producing row u (all eight orientations scored from the staged copy).
func BuildOrientedStoreDevice(dev *cuda.Device, in, tgt *tilestore.Store, met Metric) (*OrientedMatrix, error) {
	s, err := checkGrayStores(in, tgt, met)
	if err != nil {
		return nil, err
	}
	m := in.M
	m2 := m * m
	out := &OrientedMatrix{
		Matrix: *NewMatrix(s),
		Orient: make([]imgutil.Orientation, s*s),
	}
	dev.Launch(s, deviceThreads(s), func(b *cuda.Block) {
		u := b.Idx
		sh := b.Shared(m2)
		src := in.Tile(u)
		b.StrideLoop(m2, func(i int) { sh[i] = src[i] })
		row := out.Row(u)
		orow := out.Orient[u*s : (u+1)*s]
		b.StrideLoop(s, func(v int) {
			tv := tgt.Tile(v)
			best := TileError(sh, tv, met)
			bestO := imgutil.Upright
			for o := imgutil.Orientation(1); o < imgutil.NumOrientations; o++ {
				if c := orientedTileError(sh, tv, m, o, met); c < best {
					best = c
					bestO = o
				}
			}
			row[v] = best
			orow[v] = bestO
		})
	})
	return out, nil
}
