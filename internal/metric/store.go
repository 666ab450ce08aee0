// Store-backed Step-2 builders: the same named strategies as metric.go, but
// streaming the columnar tile store instead of re-cropping grids.
//
// A tilestore.Store holds every tile as a contiguous zero-padded block, so
// the builders here read the flat buffer linearly — no Grid.Flatten gather
// per build, no row arithmetic in the inner loop. The kernels run over the
// padded blocks (tilestore.Store.TilePadded): the padding is zero on both
// sides of every comparison, contributes |0−0| = 0 under either metric, and
// keeps every kernel iteration on whole 32-byte chunks. Under L1 each matrix
// row (or row panel) is one tileErrorL1Row call over the contiguous target
// blocks; L2 stays one SWAR TileError per entry. Each store builder is
// bit-identical to its crop-path oracle of the same Builder name, which
// TestTileStoreBuildersEquivalent enforces over randomized scenes.
package metric

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/cuda"
	"repro/internal/imgutil"
	"repro/internal/tilestore"
)

// checkStores validates that two stores are comparable: same grid geometry,
// tile side within the Cost overflow bound. Equal M implies equal Stride.
func checkStores(in, tgt *tilestore.Store) error {
	if in.M != tgt.M || in.Cols != tgt.Cols || in.Rows != tgt.Rows {
		return fmt.Errorf("metric: input store %dx%d tiles of %d vs target %dx%d tiles of %d: %w",
			in.Cols, in.Rows, in.M, tgt.Cols, tgt.Rows, tgt.M, ErrMismatch)
	}
	if in.M > MaxTileSide {
		return fmt.Errorf("metric: tile side %d exceeds %d (Cost overflow): %w", in.M, MaxTileSide, ErrMismatch)
	}
	return nil
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

// BuildStoreSerial is BuildSerial over the store: one core, rows in order,
// each row one storeRow over the padded blocks.
func BuildStoreSerial(in, tgt *tilestore.Store, m Metric) (*Matrix, error) {
	s, err := storeSetup(in, tgt, m)
	if err != nil {
		return nil, err
	}
	out := NewMatrix(s)
	for u := 0; u < s; u++ {
		storeRow(in.TilePadded(u), tgt, m, out.Row(u), 0, s)
	}
	return out, nil
}

// BuildStoreSerialScalar is the scalar-kernel oracle over the store — the
// store-path counterpart of BuildSerialScalar.
func BuildStoreSerialScalar(in, tgt *tilestore.Store, m Metric) (*Matrix, error) {
	s, err := storeSetup(in, tgt, m)
	if err != nil {
		return nil, err
	}
	out := NewMatrix(s)
	for u := 0; u < s; u++ {
		tu := in.TilePadded(u)
		row := out.Row(u)
		for v := 0; v < s; v++ {
			row[v] = TileErrorScalar(tu, tgt.TilePadded(v), m)
		}
	}
	return out, nil
}

// BuildStoreBlocked is the cache-blocked loop nest over the store, with the
// same byte budgets as BuildBlocked (panels sized by the padded stride, so
// the resident working set is computed from what is actually streamed).
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

// storeDeviceKernel returns the §V kernel body shared by the device-shaped
// store builders: block b stages input tile rowBase+b.Idx and computes that
// row of the matrix (the input tile against every target).
func storeDeviceKernel(in, tgt *tilestore.Store, m Metric, out *Matrix, rowBase int) func(b *cuda.Block) {
	stride := in.Stride
	return func(b *cuda.Block) {
		u := rowBase + b.Idx
		// Stage the padded input block in shared memory (the paper's first
		// kernel phase); the padded length keeps the copy word-aligned.
		sh := b.Shared(stride)
		src := in.TilePadded(u)
		b.StrideLoop(stride, func(i int) { sh[i] = src[i] })
		storeRow(sh, tgt, m, out.Row(u), 0, out.S)
	}
}

// BuildStoreDevice is the paper's §V kernel decomposition reading the store:
// S blocks, block u staging tile u's padded block in shared memory and
// producing row u.
func BuildStoreDevice(dev *cuda.Device, in, tgt *tilestore.Store, m Metric) (*Matrix, error) {
	s, err := storeSetup(in, tgt, m)
	if err != nil {
		return nil, err
	}
	out := NewMatrix(s)
	threads := 256
	if threads > s {
		threads = s
	}
	dev.Launch(s, threads, storeDeviceKernel(in, tgt, m, out, 0))
	return out, nil
}

// BuildStoreDeviceContext is BuildStoreDevice through the fault-aware launch
// path (typed errors instead of running the kernel, launch skipped when ctx
// is dead) — the variant the resilient Step-2 build retries.
func BuildStoreDeviceContext(ctx context.Context, dev *cuda.Device, in, tgt *tilestore.Store, m Metric) (*Matrix, error) {
	s, err := storeSetup(in, tgt, m)
	if err != nil {
		return nil, err
	}
	out := NewMatrix(s)
	threads := 256
	if threads > s {
		threads = s
	}
	if err := dev.LaunchErr(ctx, KernelCostMatrix, s, threads, storeDeviceKernel(in, tgt, m, out, 0)); err != nil {
		return nil, err
	}
	return out, nil
}

// BuildStoreRowsParallel is plain row-level multicore parallelism over the
// store, without the kernel shape.
func BuildStoreRowsParallel(dev *cuda.Device, in, tgt *tilestore.Store, m Metric) (*Matrix, error) {
	s, err := storeSetup(in, tgt, m)
	if err != nil {
		return nil, err
	}
	out := NewMatrix(s)
	dev.LaunchRange(s, storeRowBody(in, tgt, m, out))
	return out, nil
}

// storeRowBody returns the per-row body of the rows-parallel store builders.
func storeRowBody(in, tgt *tilestore.Store, m Metric, out *Matrix) func(u int) {
	return func(u int) {
		storeRow(in.TilePadded(u), tgt, m, out.Row(u), 0, out.S)
	}
}

// BuildStoreRowsParallelContext is BuildStoreRowsParallel through the
// fault-aware execute path.
func BuildStoreRowsParallelContext(ctx context.Context, dev *cuda.Device, in, tgt *tilestore.Store, m Metric) (*Matrix, error) {
	s, err := storeSetup(in, tgt, m)
	if err != nil {
		return nil, err
	}
	out := NewMatrix(s)
	if err := dev.ExecuteErr(ctx, KernelCostMatrixRows, s, storeRowBody(in, tgt, m, out)); err != nil {
		return nil, err
	}
	return out, nil
}

// BuildStoreSharded splits the S matrix rows into contiguous ranges — one
// per device — and launches the §V kernel concurrently on every device, each
// shard writing its disjoint row slab of one output matrix. This is the
// multi-device decomposition the columnar layout exists for: a shard needs
// only its row range of the input store and the whole target store, both
// read-only, so shards share the flat buffers zero-copy. The result is
// bit-identical to BuildStoreDevice (row order inside a shard is the kernel
// order; rows across shards are disjoint).
//
// Launch faults return as typed errors; the first failing shard's error is
// reported. Concurrent launches are safe because every shard runs on its own
// Device (separate streams).
func BuildStoreSharded(ctx context.Context, devs []*cuda.Device, in, tgt *tilestore.Store, m Metric) (*Matrix, error) {
	if len(devs) == 0 {
		return nil, errors.New("metric: BuildStoreSharded with no devices")
	}
	s, err := storeSetup(in, tgt, m)
	if err != nil {
		return nil, err
	}
	out := NewMatrix(s)
	threads := 256
	if threads > s {
		threads = s
	}
	ranges := cuda.SplitRange(s, len(devs))
	errs := make([]error, len(ranges))
	var wg sync.WaitGroup
	for i, r := range ranges {
		wg.Add(1)
		go func(i int, r cuda.Range, dev *cuda.Device) {
			defer wg.Done()
			errs[i] = dev.LaunchErr(ctx, KernelCostMatrix, r.Len(), threads,
				storeDeviceKernel(in, tgt, m, out, r.Lo))
		}(i, r, devs[i])
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	return out, nil
}

// BuildStore dispatches to the named builder's store-backed implementation —
// the same Builder vocabulary as Build, same bit-identical contract, reading
// the columnar store instead of grids. BuilderAuto resolves exactly as Build
// does.
func BuildStore(dev *cuda.Device, in, tgt *tilestore.Store, m Metric, b Builder) (*Matrix, error) {
	if b == BuilderAuto {
		if dev != nil {
			b = BuilderDevice
		} else {
			b = BuilderBlocked
		}
	}
	if b.NeedsDevice() && dev == nil {
		return nil, fmt.Errorf("metric: builder %q requires a device", b)
	}
	switch b {
	case BuilderSerial:
		return BuildStoreSerial(in, tgt, m)
	case BuilderScalar:
		return BuildStoreSerialScalar(in, tgt, m)
	case BuilderBlocked:
		return BuildStoreBlocked(in, tgt, m)
	case BuilderDevice:
		return BuildStoreDevice(dev, in, tgt, m)
	case BuilderRows:
		return BuildStoreRowsParallel(dev, in, tgt, m)
	}
	return nil, fmt.Errorf("metric: unknown builder %q", b)
}

// BuildOrientedStore is BuildOriented reading the store: all eight dihedral
// placements scored per pair from the unpadded tile views (orientation
// indexing is defined over the M×M payload, so the oriented kernels use
// Tile, not TilePadded; the upright case is the plain TileError).
func BuildOrientedStore(in, tgt *tilestore.Store, met Metric) (*OrientedMatrix, error) {
	s, err := storeSetup(in, tgt, met)
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

// BuildOrientedStoreDevice is BuildOrientedDevice reading the store.
func BuildOrientedStoreDevice(dev *cuda.Device, in, tgt *tilestore.Store, met Metric) (*OrientedMatrix, error) {
	s, err := storeSetup(in, tgt, met)
	if err != nil {
		return nil, err
	}
	m := in.M
	m2 := m * m
	out := &OrientedMatrix{
		Matrix: *NewMatrix(s),
		Orient: make([]imgutil.Orientation, s*s),
	}
	threads := 256
	if threads > s {
		threads = s
	}
	dev.Launch(s, threads, func(b *cuda.Block) {
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
