// Package mosaic generates photomosaics by rearranging the subimages of an
// input image so the rearranged image reproduces a target image — a Go
// implementation of "Photomosaic Generation by Rearranging Subimages, with
// GPU Acceleration" (Yang, Ito, Nakano; IPDPS Workshops 2017).
//
// Both images are divided into S square tiles; the library then finds a
// permutation of the input tiles minimising the summed per-tile error
// against the target. Two rearrangement engines are provided, exactly as in
// the paper:
//
//   - Optimization: exact minimum-weight perfect bipartite matching over the
//     S×S tile-error matrix — the best possible mosaic, at O(S³) cost;
//   - Approximation: a pairwise-swap local search that is orders of
//     magnitude faster and visually indistinguishable, with a parallel
//     variant whose concurrent swaps are scheduled by an edge coloring of
//     the complete graph K_S and executed on a virtual accelerator
//     re-creating the paper's CUDA kernels on CPU cores.
//
// # Quickstart
//
//	input, _ := mosaic.Scene("lena", 512)
//	target, _ := mosaic.Scene("sailboat", 512)
//	res, err := mosaic.Generate(input, target, mosaic.Options{TilesPerSide: 32})
//	if err != nil { ... }
//	_ = mosaic.SavePNG("mosaic.png", res.Mosaic)
//
// See the examples directory for the video-sequence and color workflows and
// EXPERIMENTS.md for the reproduction of the paper's tables and figures.
package mosaic

import (
	"context"
	"image/png"
	"io"
	"os"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/edgecolor"
	"repro/internal/hist"
	"repro/internal/imgutil"
	"repro/internal/metric"
	"repro/internal/perm"
	"repro/internal/pnm"
	"repro/internal/retry"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/video"
)

// Gray is an 8-bit grayscale image: pixel (x, y) at Pix[y*W+x].
type Gray = imgutil.Gray

// RGB is a 24-bit color image with interleaved row-major storage.
type RGB = imgutil.RGB

// NewGray returns a zeroed w×h grayscale image.
func NewGray(w, h int) *Gray { return imgutil.NewGray(w, h) }

// NewRGB returns a zeroed w×h color image.
func NewRGB(w, h int) *RGB { return imgutil.NewRGB(w, h) }

// Options configures Generate; see the field docs on core.Options.
// The zero value plus one of TilesPerSide/TileSize reproduces the paper's
// configuration: L1 error, histogram matching enabled, serial approximation.
type Options = core.Options

// Result is the output of Generate.
type Result = core.Result

// ResultRGB is the output of GenerateRGB.
type ResultRGB = core.ResultRGB

// Timing breaks pipeline wall time into the paper's table stages.
type Timing = core.Timing

// Algorithm selects the Step-3 rearrangement engine.
type Algorithm = core.Algorithm

// The selectable rearrangement algorithms.
const (
	// Optimization is the exact bipartite-matching method (paper §III).
	Optimization = core.Optimization
	// Approximation is the serial local search (paper §IV-A).
	Approximation = core.Approximation
	// ApproximationDirty is the serial local search with dirty-pair tracking
	// (and optional candidate lists via Options.Search.Candidates): same
	// swap-local fixed points, far fewer pair tests.
	ApproximationDirty = core.ApproximationDirty
	// ParallelApproximation is the edge-coloring-scheduled parallel local
	// search (paper §IV-B); requires Options.Device.
	ParallelApproximation = core.ParallelApproximation
	// GreedyBaseline and IdentityBaseline are the evaluation baselines.
	GreedyBaseline   = core.GreedyBaseline
	IdentityBaseline = core.IdentityBaseline
	// Annealing is the simulated-annealing extension: Metropolis-accepted
	// random swaps with geometric cooling, then an Algorithm-1 polish.
	Annealing = core.Annealing
)

// Solver names an exact matching algorithm for Optimization.
type Solver = assign.Algorithm

// The exact solvers (any may back Optimization; JV is the default) and the
// greedy baseline.
const (
	SolverJV        = assign.AlgoJV
	SolverHungarian = assign.AlgoHungarian
	SolverAuction   = assign.AlgoAuction
	// SolverBlossom is the general-graph weighted blossom algorithm — the
	// solver family the paper uses (Blossom V); exact but slower than the
	// dedicated LAP solvers and capped at small S. See internal/blossom.
	SolverBlossom = assign.AlgoBlossom
	SolverGreedy  = assign.AlgoGreedy
	// SolverAuctionDevice is the device-batched candidate auction: the
	// ε-scaling auction with row scans executed as kernels and a certified
	// early stop at a 1% optimality gap (exactness traded for wall time;
	// see README "Choosing a solver").
	SolverAuctionDevice = assign.AlgoAuctionDevice
	// SolverSinkhorn is the entropic solver: sparse-support log-domain
	// Sinkhorn iterations rounded to a permutation and polished by bounded
	// dirty 2-opt sweeps. Approximate, with a (loose) dual certificate.
	SolverSinkhorn = assign.AlgoSinkhorn
)

// Metric selects the per-pixel error of the paper's Eq. (1).
type Metric = metric.Metric

// The per-pixel error functions.
const (
	// L1 is the paper's sum of absolute differences.
	L1 = metric.L1
	// L2 is the sum of squared differences.
	L2 = metric.L2
)

// Device is a virtual accelerator standing in for the paper's GPU: a worker
// pool executing CUDA-shaped kernels (see internal/cuda).
type Device = cuda.Device

// NewDevice returns a Device with the given worker count; workers ≤ 0 uses
// all available cores.
func NewDevice(workers int) *Device { return cuda.New(workers) }

// FaultInjector decides, per kernel launch, whether a fault fires on a
// Device — the chaos-drill hook behind Device.WithFaults. See FaultPlan for
// the declarative implementation.
type FaultInjector = cuda.FaultInjector

// FaultPlan is the seeded, deterministic FaultInjector: it matches launches
// by ordinal (every Nth, an explicit list), by probability, and/or by kernel
// name, and injects a typed error, extra latency or a hang. Plans are
// stateful — give each device its own.
type FaultPlan = cuda.FaultPlan

// LaunchInfo describes one fault-checked kernel launch to a FaultInjector.
type LaunchInfo = cuda.LaunchInfo

// Fault is a FaultInjector's verdict for one launch.
type Fault = cuda.Fault

// The typed device faults. ErrDeviceLost is sticky: every later launch on
// the device fails until ClearLost.
var (
	ErrLaunchFailed = cuda.ErrLaunchFailed
	ErrDeviceLost   = cuda.ErrDeviceLost
	ErrDeviceHung   = cuda.ErrDeviceHung
)

// ParseFaultSpec parses the comma-separated fault-drill syntax shared by the
// CLIs' -chaos flags, e.g. "every=2,err=launch" or "nth=5,err=lost,max=1".
func ParseFaultSpec(spec string) (*FaultPlan, error) { return cuda.ParseFaultSpec(spec) }

// RetryPolicy is a bounded exponential-backoff-with-jitter schedule; the
// zero value means 3 attempts from a 2ms base. Set one on Resilience.Retry.
type RetryPolicy = retry.Policy

// Resilience opts a pipeline run into fault handling: each device kernel
// launch runs under Retry, and exhausted retries (or a lost device) degrade
// to the bit-identical host path unless DisableFallback is set. Set on
// Options.Resilience; nil keeps the original fail-fast behaviour.
type Resilience = core.Resilience

// Coloring is a proper edge coloring of K_S scheduling the parallel local
// search. Precompute one per S with NewColoring and share it across calls,
// as the paper does across video frames.
type Coloring = edgecolor.Coloring

// NewColoring returns the circle-method edge coloring of K_s.
func NewColoring(s int) *Coloring { return edgecolor.Complete(s) }

// Generate produces a grayscale photomosaic of target from the tiles of
// input. Both images must be square, equal-sized, and divisible into the
// requested tile grid.
func Generate(input, target *Gray, opts Options) (*Result, error) {
	return core.Generate(input, target, opts)
}

// GenerateContext is Generate with cancellation and deadline support: ctx is
// checked between pipeline stages and, during the local searches, between
// sweep rounds and color classes. A cancelled call returns the ctx error
// (test with errors.Is) and a nil Result — never a partial one.
func GenerateContext(ctx context.Context, input, target *Gray, opts Options) (*Result, error) {
	return core.GenerateContext(ctx, input, target, opts)
}

// GenerateRGB produces a color photomosaic — the paper's color extension,
// using the per-channel form of the error function.
func GenerateRGB(input, target *RGB, opts Options) (*ResultRGB, error) {
	return core.GenerateRGB(input, target, opts)
}

// GenerateRGBContext is GenerateRGB with the cancellation semantics of
// GenerateContext.
func GenerateRGBContext(ctx context.Context, input, target *RGB, opts Options) (*ResultRGB, error) {
	return core.GenerateRGBContext(ctx, input, target, opts)
}

// TraceCollector receives span and counter events from a traced pipeline
// run; set one on Options.Trace or SequencerConfig.Trace. See NewTraceTree
// and NewTraceLog for the built-in collectors.
type TraceCollector = trace.Collector

// Stats is the aggregated observability snapshot of one run — per-stage span
// totals plus the sweep/swap/kernel counters — exposed on Result.Stats and
// FrameResult.Stats.
type Stats = trace.Stats

// SpanStat aggregates the spans sharing one name within a Stats snapshot.
type SpanStat = trace.SpanStat

// TraceTree is the recording collector: it captures the span tree and
// counter totals, serialises them to JSON (WriteJSON) and aggregates them
// into a Stats snapshot (Snapshot).
type TraceTree = trace.Tree

// NewTraceTree returns an empty recording collector.
func NewTraceTree() *TraceTree { return trace.NewTree() }

// NewTraceLog returns a collector streaming one line per span/counter event
// to w — the quick way to watch a pipeline run live.
func NewTraceLog(w io.Writer) TraceCollector { return trace.NewLog(w) }

// The span names emitted by the pipeline: one per stage of the paper's
// decomposition, under a pipeline (Generate) or frame (Sequencer.Next) root.
const (
	SpanPipeline   = trace.SpanPipeline
	SpanFrame      = trace.SpanFrame
	SpanPreprocess = trace.SpanPreprocess
	SpanTiling     = trace.SpanTiling
	SpanCostMatrix = trace.SpanCostMatrix
	SpanRearrange  = trace.SpanRearrange
	SpanAssemble   = trace.SpanAssemble
)

// The counter names emitted by the search engines and the virtual device.
const (
	CounterSweepRounds    = trace.CounterSweepRounds
	CounterSwapAttempts   = trace.CounterSwapAttempts
	CounterImprovingSwaps = trace.CounterImprovingSwaps
	CounterAnnealSteps    = trace.CounterAnnealSteps
	CounterKernelLaunches = trace.CounterKernelLaunches
	CounterKernelBlocks   = trace.CounterKernelBlocks
)

// HistogramMatch returns a copy of img whose intensity distribution matches
// ref — the paper's §II preprocessing, exposed for callers that prepare
// inputs themselves (Generate applies it automatically unless disabled).
func HistogramMatch(img, ref *Gray) (*Gray, error) { return hist.Match(img, ref) }

// HistogramEqualize returns a copy of img with an equalized histogram.
func HistogramEqualize(img *Gray) (*Gray, error) { return hist.Equalize(img) }

// Scene renders one of the built-in deterministic synthetic test scenes
// (stand-ins for the paper's USC-SIPI photographs) at size n×n. Valid names:
// lena, sailboat, airplane, peppers, barbara, baboon, tiffany, plasma,
// gradient, checker.
func Scene(name string, n int) (*Gray, error) {
	s, err := synth.ParseScene(name)
	if err != nil {
		return nil, err
	}
	return synth.Generate(s, n)
}

// SceneRGB renders the color variant of a built-in scene.
func SceneRGB(name string, n int) (*RGB, error) {
	s, err := synth.ParseScene(name)
	if err != nil {
		return nil, err
	}
	return synth.GenerateRGB(s, n)
}

// SceneNames lists the built-in scene names in stable order.
func SceneNames() []string {
	out := make([]string, 0, len(synth.Scenes()))
	for _, s := range synth.Scenes() {
		out = append(out, string(s))
	}
	return out
}

// LoadPGM reads an 8-bit PGM (P2/P5) file.
func LoadPGM(path string) (*Gray, error) { return pnm.LoadGray(path) }

// SavePGM writes img as binary PGM (P5).
func SavePGM(path string, img *Gray) error { return pnm.SaveGray(path, img) }

// LoadPPM reads an 8-bit PPM (P3/P6) file.
func LoadPPM(path string) (*RGB, error) { return pnm.LoadRGB(path) }

// SavePPM writes img as binary PPM (P6).
func SavePPM(path string, img *RGB) error { return pnm.SaveRGB(path, img) }

// SavePNG writes a grayscale image as PNG.
func SavePNG(path string, img *Gray) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := png.Encode(f, img.ToImage()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SavePNGRGB writes a color image as PNG.
func SavePNGRGB(path string, img *RGB) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := png.Encode(f, img.ToImage()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Assignment maps each target position to the input tile placed there
// (Result.Assignment); it is a permutation of 0..S−1.
type Assignment = perm.Perm

// SequencerConfig configures a video Sequencer; see the field docs on
// video.Config.
type SequencerConfig = video.Config

// Sequencer produces photomosaics for a stream of target frames from one
// fixed input image, amortising tiling, the K_S edge coloring and the
// previous frame's assignment (warm starts) across frames — the paper's
// real-time video use case.
type Sequencer = video.Sequencer

// FrameResult is the per-frame output of a Sequencer.
type FrameResult = video.FrameResult

// NewSequencer returns a Sequencer mosaicking targets from input's tiles.
func NewSequencer(input *Gray, cfg SequencerConfig) (*Sequencer, error) {
	return video.NewSequencer(input, cfg)
}

// Pan synthesises a horizontal camera pan: `frames` windows of size×size
// sliding across a wider scene. A convenient demo/test target stream.
func Pan(scene *Gray, size, frames int) ([]*Gray, error) {
	return video.Pan(scene, size, frames)
}
