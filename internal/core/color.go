package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cuda"
	"repro/internal/hist"
	"repro/internal/imgutil"
	"repro/internal/metric"
	"repro/internal/tile"
	"repro/internal/tilestore"
	"repro/internal/trace"
)

// ResultRGB is the color counterpart of Result.
type ResultRGB struct {
	Mosaic      *imgutil.RGB
	Assignment  []int
	TotalError  int64
	Input       *imgutil.RGB
	SearchStats SearchStats
	Timing      Timing
	Stats       trace.Stats
}

// SearchStats re-exports the local-search statistics without forcing color
// callers to import internal/localsearch.
type SearchStats struct {
	Passes int
	Swaps  int64
}

// checkGeometryRGB is checkGeometry for color images (3 bytes per pixel).
func checkGeometryRGB(img *imgutil.RGB, role string) error {
	if img == nil {
		return fmt.Errorf("core: nil %s image: %w", role, ErrOptions)
	}
	if img.W <= 0 || img.H <= 0 || len(img.Pix) != 3*img.W*img.H {
		return fmt.Errorf("core: %s image %dx%d with %d pixel bytes: %w", role, img.W, img.H, len(img.Pix), ErrOptions)
	}
	return nil
}

// GenerateRGB runs the pipeline on color images. The paper's §II remark —
// color needs "only … changing the error function in Eq. (1)" — is realised
// by 3-channel tile stores (tilestore.FromRGB): Eq. (1) over a block's
// interleaved bytes is the summed per-channel L1/L2 error, so the grayscale
// Step-2 builders run unchanged. Histogram matching becomes per-channel
// matching.
func GenerateRGB(input, target *imgutil.RGB, opts Options) (*ResultRGB, error) {
	return GenerateRGBContext(context.Background(), input, target, opts)
}

// GenerateRGBContext is GenerateRGB with the cancellation and tracing
// semantics of GenerateContext.
func GenerateRGBContext(ctx context.Context, input, target *imgutil.RGB, opts Options) (*ResultRGB, error) {
	// Geometry and option checks mirror the grayscale path.
	if err := checkGeometryRGB(input, "input"); err != nil {
		return nil, err
	}
	if err := checkGeometryRGB(target, "target"); err != nil {
		return nil, err
	}
	if input.W != input.H || target.W != target.H || input.W != target.W {
		return nil, fmt.Errorf("core: color images must be square and equal-sized (input %dx%d, target %dx%d): %w",
			input.W, input.H, target.W, target.H, ErrOptions)
	}
	if opts.AllowOrientations {
		return nil, fmt.Errorf("core: AllowOrientations is grayscale-only: %w", ErrOptions)
	}
	// Reuse the grayscale validator via same-geometry placeholders so the
	// option normalisation logic exists exactly once.
	probe := imgutil.NewGray(input.W, input.H)
	m, err := opts.validate(probe, probe)
	if err != nil {
		return nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return nil, fmt.Errorf("core: cancelled before preprocessing: %w", err)
	}
	tree := trace.NewTree()
	tr := trace.Multi(tree, opts.Trace)
	var dev0 cuda.Metrics
	if opts.Device != nil {
		dev0 = opts.Device.Metrics()
	}
	res, err := generateRGB(ctx, input, target, opts, m, tr)
	deviceDelta(tr, opts.Device, dev0)
	if err != nil {
		trace.Count(tr, trace.CounterPipelineErrors, 1)
		return nil, err
	}
	trace.Count(tr, trace.CounterPipelineRuns, 1)
	res.Stats = tree.Snapshot()
	return res, nil
}

// generateRGB runs the color pipeline stages under the root span.
func generateRGB(ctx context.Context, input, target *imgutil.RGB, opts Options, m int, tr trace.Collector) (res *ResultRGB, err error) {
	root := trace.Start(tr, trace.SpanPipeline)
	defer root.End()
	res = &ResultRGB{}

	t0 := time.Now()
	sp := trace.Start(tr, trace.SpanPreprocess)
	work := input
	if !opts.NoHistogramMatch {
		work, err = hist.MatchRGB(input, target)
		if err != nil {
			return nil, fmt.Errorf("core: histogram match: %w", err)
		}
	}
	sp.End()
	res.Input = work
	res.Timing.Preprocess = time.Since(t0)
	if err := ctxErr(ctx); err != nil {
		return nil, fmt.Errorf("core: cancelled before tiling: %w", err)
	}

	sp = trace.Start(tr, trace.SpanTiling)
	inGrid, err := tile.NewRGBGrid(work, m)
	if err != nil {
		return nil, err
	}
	inStore, err := tilestore.FromRGB(work, m)
	if err != nil {
		return nil, err
	}
	tgtStore, err := tilestore.FromRGB(target, m)
	if err != nil {
		return nil, err
	}
	sp.End()
	if err := ctxErr(ctx); err != nil {
		return nil, fmt.Errorf("core: cancelled before Step 2: %w", err)
	}

	t0 = time.Now()
	sp = trace.Start(tr, trace.SpanCostMatrix)
	costs, err := metric.BuildStore(opts.Device, inStore, tgtStore, opts.Metric, metric.BuilderAuto)
	if err != nil {
		return nil, err
	}
	sp.End()
	res.Timing.CostMatrix = time.Since(t0)
	if err := ctxErr(ctx); err != nil {
		return nil, fmt.Errorf("core: cancelled before Step 3: %w", err)
	}

	t0 = time.Now()
	sp = trace.Start(tr, trace.SpanRearrange)
	p, st, assignDur, _, err := rearrangeContext(ctx, costs, opts, tr)
	if err != nil {
		return nil, err
	}
	sp.End()
	res.Timing.Rearrange = time.Since(t0)
	res.Timing.Assign = assignDur
	res.Assignment = p
	res.SearchStats = SearchStats{Passes: st.Passes, Swaps: st.Swaps}
	res.TotalError = costs.Total(p)
	if err := ctxErr(ctx); err != nil {
		return nil, fmt.Errorf("core: cancelled before assembly: %w", err)
	}

	t0 = time.Now()
	sp = trace.Start(tr, trace.SpanAssemble)
	res.Mosaic, err = inGrid.Assemble(p)
	if err != nil {
		return nil, err
	}
	sp.End()
	res.Timing.Assemble = time.Since(t0)
	return res, nil
}
