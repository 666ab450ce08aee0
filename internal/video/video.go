// Package video generates photomosaic sequences — the real-time video use
// case the paper gives as the motivation for its approximation algorithm
// (§III cites interactive and video photomosaic systems [16]–[18]).
//
// A Sequencer holds everything reusable across frames of one stream:
//
//   - the input image;
//   - the edge coloring of K_S for the parallel search, which depends only
//     on S (§IV-B: "computed in advance");
//   - the previous frame's assignment, used to warm-start the local search —
//     consecutive frames differ little, so far fewer passes are needed than
//     from the identity start.
//
// Each frame is one run of the core pipeline (core.GenerateContext) against
// the new target, with the precomputed coloring and the warm start passed
// in: Algorithm 2 on the device when the stream has one, Algorithm 1 on the
// host otherwise.
package video

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/edgecolor"
	"repro/internal/imgutil"
	"repro/internal/metric"
	"repro/internal/perm"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ErrConfig reports an invalid sequencer configuration or frame.
var ErrConfig = errors.New("video: invalid configuration")

// Config sets up a Sequencer.
type Config struct {
	// TilesPerSide divides frames into TilesPerSide² tiles.
	TilesPerSide int
	// Metric is the per-pixel error; default L1.
	Metric metric.Metric
	// Device runs Step 2 and the parallel search; nil keeps everything
	// serial (Algorithm 1 with warm starts).
	Device *cuda.Device
	// NoWarmStart disables reusing the previous frame's assignment — each
	// frame then starts from the identity, as the single-image pipeline
	// does. Exposed for the ablation that measures what warm starts buy.
	NoWarmStart bool
	// NoHistogramMatch skips the per-frame §II preprocessing.
	NoHistogramMatch bool
	// Trace optionally receives span and counter events for every frame
	// (one trace.SpanFrame root per Next call); nil traces nothing.
	Trace trace.Collector
	// Metrics optionally receives per-frame registry metrics: the
	// mosaic_video_frame_latency_seconds histogram, frame/error totals, and
	// — in Stream mode — the mosaic_video_queue_depth gauge. nil records
	// nothing.
	Metrics *telemetry.Registry
}

// FrameResult is the output for one target frame.
type FrameResult struct {
	Mosaic     *imgutil.Gray
	Assignment perm.Perm
	TotalError int64
	Passes     int // local-search sweeps this frame (k)
	// Latency is the wall time of this frame's Next call — what the frame
	// latency histogram observes.
	Latency time.Duration
	// Stats is the aggregated trace of this frame — the per-frame analogue
	// of core.Result.Stats.
	Stats trace.Stats
}

// Sequencer produces mosaics for a stream of equally-sized target frames
// from one fixed input image. Not safe for concurrent use.
type Sequencer struct {
	cfg      Config
	input    *imgutil.Gray
	coloring *edgecolor.Coloring
	prev     perm.Perm
	frames   int
	s        int

	// Registry series, resolved once in NewSequencer when cfg.Metrics is
	// set; all nil otherwise.
	latencyHist *telemetry.Histogram
	framesCtr   *telemetry.Counter
	errorsCtr   *telemetry.Counter
	queueGauge  *telemetry.Gauge
}

// NewSequencer validates the configuration and precomputes the per-stream
// state. input must be square and divisible into the requested grid.
func NewSequencer(input *imgutil.Gray, cfg Config) (*Sequencer, error) {
	if cfg.TilesPerSide <= 0 {
		return nil, fmt.Errorf("video: TilesPerSide %d: %w", cfg.TilesPerSide, ErrConfig)
	}
	if input.W != input.H {
		return nil, fmt.Errorf("video: input %dx%d not square: %w", input.W, input.H, ErrConfig)
	}
	if input.W%cfg.TilesPerSide != 0 {
		return nil, fmt.Errorf("video: side %d not divisible by %d: %w", input.W, cfg.TilesPerSide, ErrConfig)
	}
	if !cfg.Metric.Valid() {
		return nil, fmt.Errorf("video: invalid metric %v: %w", cfg.Metric, ErrConfig)
	}
	s := cfg.TilesPerSide * cfg.TilesPerSide
	seq := &Sequencer{cfg: cfg, input: input.Clone(), s: s}
	if cfg.Device != nil {
		seq.coloring = edgecolor.Complete(s)
	}
	if reg := cfg.Metrics; reg != nil {
		seq.latencyHist = reg.Histogram("mosaic_video_frame_latency_seconds",
			"Wall time per mosaicked video frame.", nil, nil)
		seq.framesCtr = reg.Counter("mosaic_video_frames_total",
			"Video frames mosaicked successfully.", nil)
		seq.errorsCtr = reg.Counter("mosaic_video_frame_errors_total",
			"Video frames that failed, including cancellations.", nil)
		seq.queueGauge = reg.Gauge("mosaic_video_queue_depth",
			"Frames waiting in the Stream input channel.", nil)
	}
	return seq, nil
}

// S returns the number of tiles per frame.
func (q *Sequencer) S() int { return q.s }

// Frames returns how many frames have been processed.
func (q *Sequencer) Frames() int { return q.frames }

// Reset discards the warm-start state (use at scene cuts, where the next
// frame no longer resembles the previous one).
func (q *Sequencer) Reset() { q.prev = nil }

// Next mosaics one target frame.
func (q *Sequencer) Next(target *imgutil.Gray) (*FrameResult, error) {
	return q.NextContext(context.Background(), target)
}

// NextContext is Next with cancellation and tracing: ctx is checked between
// stages and between local-search sweep rounds / color classes, so a
// cancelled or timed-out frame returns promptly with the ctx error (test
// with errors.Is) and a nil FrameResult. A cancelled frame leaves the
// sequencer's warm-start state and frame count untouched, so the stream can
// continue with the next frame.
func (q *Sequencer) NextContext(ctx context.Context, target *imgutil.Gray) (*FrameResult, error) {
	if target.W != q.input.W || target.H != q.input.H {
		q.countFrameError()
		return nil, fmt.Errorf("video: frame %dx%d, stream is %dx%d: %w",
			target.W, target.H, q.input.W, q.input.H, ErrConfig)
	}
	if err := ctxErr(ctx); err != nil {
		q.countFrameError()
		return nil, fmt.Errorf("video: frame cancelled before preprocessing: %w", err)
	}
	tree := trace.NewTree()
	tr := trace.Multi(tree, q.cfg.Trace)
	begin := time.Now()
	fr, err := q.next(ctx, target, tr)
	latency := time.Since(begin)
	if err != nil {
		trace.Count(tr, trace.CounterFrameErrors, 1)
		if q.errorsCtr != nil {
			q.errorsCtr.Inc()
		}
		return nil, err
	}
	trace.Count(tr, trace.CounterFrames, 1)
	if q.latencyHist != nil {
		q.latencyHist.Observe(latency.Seconds())
		q.framesCtr.Inc()
	}
	fr.Latency = latency
	fr.Stats = tree.Snapshot()
	return fr, nil
}

// countFrameError charges one failed frame to the trace and registry
// counters — used by the early returns that fail before the per-frame trace
// tree exists.
func (q *Sequencer) countFrameError() {
	trace.Count(q.cfg.Trace, trace.CounterFrameErrors, 1)
	if q.errorsCtr != nil {
		q.errorsCtr.Inc()
	}
}

// next runs one frame of the core pipeline under the frame span. The
// pipeline charges its kernel launches and blocks to tr.
func (q *Sequencer) next(ctx context.Context, target *imgutil.Gray, tr trace.Collector) (*FrameResult, error) {
	root := trace.Start(tr, trace.SpanFrame)
	defer root.End()
	opts := core.Options{
		TilesPerSide:     q.cfg.TilesPerSide,
		Algorithm:        core.Approximation,
		Metric:           q.cfg.Metric,
		NoHistogramMatch: q.cfg.NoHistogramMatch,
		Device:           q.cfg.Device,
		Coloring:         q.coloring,
		Trace:            tr,
	}
	if q.cfg.Device != nil {
		opts.Algorithm = core.ParallelApproximation
	}
	if !q.cfg.NoWarmStart {
		opts.Start = q.prev
	}
	res, err := core.GenerateContext(ctx, q.input, target, opts)
	if err != nil {
		return nil, fmt.Errorf("video: frame: %w", err)
	}
	q.prev = res.Assignment
	q.frames++
	return &FrameResult{
		Mosaic:     res.Mosaic,
		Assignment: res.Assignment,
		TotalError: res.TotalError,
		Passes:     res.SearchStats.Passes,
	}, nil
}

// Stream drains target frames from in until the channel closes or ctx is
// cancelled, mosaicking each with NextContext and handing the result to
// emit. When Config.Metrics is set, the queue-depth gauge tracks len(in)
// before each frame — with a buffered producer channel this is the
// backpressure signal of the serving story: a rising queue means frames
// arrive faster than the pipeline drains them.
//
// Stream returns the first error from a frame or from emit (the warm-start
// state survives, so a caller may resume), or ctx's error on cancellation,
// or nil when in closes.
func (q *Sequencer) Stream(ctx context.Context, in <-chan *imgutil.Gray, emit func(*FrameResult) error) error {
	for {
		if q.queueGauge != nil {
			q.queueGauge.Set(float64(len(in)))
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case target, ok := <-in:
			if !ok {
				if q.queueGauge != nil {
					q.queueGauge.Set(0)
				}
				return nil
			}
			fr, err := q.NextContext(ctx, target)
			if err != nil {
				return err
			}
			if err := emit(fr); err != nil {
				return err
			}
		}
	}
}

// ctxErr returns ctx's error if it is already done, nil otherwise.
func ctxErr(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// Pan synthesises a horizontal camera pan across a wide scene: frame f is
// the size×size window at offset f·stride. A convenient target stream for
// tests and demos.
func Pan(scene *imgutil.Gray, size, frames int) ([]*imgutil.Gray, error) {
	if size <= 0 || frames <= 0 || scene.W < size || scene.H < size {
		return nil, fmt.Errorf("video: pan of %dx%d windows over %dx%d: %w", size, size, scene.W, scene.H, ErrConfig)
	}
	out := make([]*imgutil.Gray, frames)
	span := scene.W - size
	for f := 0; f < frames; f++ {
		off := 0
		if frames > 1 {
			off = f * span / (frames - 1)
		}
		w, err := scene.SubImage(off, (scene.H-size)/2, size, size)
		if err != nil {
			return nil, err
		}
		out[f] = w
	}
	return out, nil
}
