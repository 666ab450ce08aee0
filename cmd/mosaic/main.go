// Command mosaic generates a photomosaic by rearranging the tiles of an
// input image to reproduce a target image.
//
// Inputs may be files (PGM, PPM or PNG, by extension) or built-in synthetic
// scene names (lena, sailboat, airplane, peppers, barbara, baboon, tiffany,
// plasma, gradient, checker). Non-square or mismatched images are resampled
// to the requested size.
//
// Examples:
//
//	mosaic -input lena -target sailboat -o out.png
//	mosaic -input photo.pgm -target logo.png -tiles 64 -algorithm optimization -o out.png
//	mosaic -input lena -target sailboat -color -o out.png
package main

import (
	"context"
	"flag"
	"fmt"
	"image/png"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	mosaic "repro"
	"repro/internal/buildinfo"
	"repro/internal/imgutil"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mosaic:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		inputArg   = flag.String("input", "lena", "input image: file path or scene name")
		targetArg  = flag.String("target", "sailboat", "target image: file path or scene name")
		out        = flag.String("o", "mosaic.png", "output path (.png, .pgm or .ppm)")
		size       = flag.Int("size", 512, "working image size (images are resampled to size×size)")
		tiles      = flag.Int("tiles", 32, "tiles per side (the paper's 16, 32 or 64)")
		algorithm  = flag.String("algorithm", "approximation", "rearrangement algorithm: optimization | approximation | approximation-dirty | approximation-parallel | greedy | identity | annealing")
		cands      = flag.Int("candidates", 0, "top-K candidate-list warm sweeps for approximation-dirty (0 = off)")
		storeCands = flag.Bool("store-candidates", false, "derive approximation-dirty's warm-sweep candidates from the tile store's thumbnail features instead of matrix columns")
		rotations  = flag.Bool("rotations", false, "allow the eight dihedral tile orientations (grayscale only)")
		proxy      = flag.Int("proxy", 0, "build the error matrix from proxy×proxy downsampled tiles (0 = exact)")
		solver     = flag.String("solver", "jv", "matcher for -algorithm optimization: jv | hungarian | auction | blossom (exact) | auction-device | sinkhorn (certified approximate, faster)")
		metricStr  = flag.String("metric", "l1", "per-pixel error: l1 | l2")
		noHist     = flag.Bool("no-histogram-match", false, "skip matching the input's intensity distribution to the target")
		color      = flag.Bool("color", false, "color pipeline (scene names render color variants; files must be PPM/PNG)")
		workers    = flag.Int("workers", 0, "device workers for parallel stages (0 = all cores)")
		gpu        = flag.Bool("gpu", false, "run Step 2 on the virtual device even for serial algorithms")
		timeout    = flag.Duration("timeout", 0, "abort generation after this long (0 = no deadline)")
		traceOut   = flag.Bool("trace", false, "include the pipeline span tree in the observability JSON on stderr")
		metrics    = flag.Bool("metrics", false, "include the counter totals and registry snapshot in the observability JSON on stderr")
		serveAddr  = flag.String("serve", "", "serve /metrics, /healthz, /metrics.json and /debug/pprof on this address during the run (e.g. 127.0.0.1:9190)")
		convPath   = flag.String("convergence", "", "write the local-search cost-vs-sweep convergence curve as JSON to this file")
		chaosSpec  = flag.String("chaos", "", "fault-injection drill: install this fault spec on the device (e.g. 'every=2,err=launch'); launches retry and degrade to the bit-identical host path")
		quiet      = flag.Bool("q", false, "suppress the summary line")
		version    = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "mosaic")
		return nil
	}

	met := mosaic.L1
	switch strings.ToLower(*metricStr) {
	case "l1":
	case "l2":
		met = mosaic.L2
	default:
		return fmt.Errorf("unknown metric %q", *metricStr)
	}
	opts := mosaic.Options{
		TilesPerSide:      *tiles,
		Algorithm:         mosaic.Algorithm(*algorithm),
		Solver:            mosaic.Solver(*solver),
		Metric:            met,
		NoHistogramMatch:  *noHist,
		AllowOrientations: *rotations,
		ProxyResolution:   *proxy,
	}
	opts.Search.Candidates = *cands
	opts.StoreCandidates = *storeCands
	if opts.Algorithm == mosaic.ParallelApproximation || *gpu {
		opts.Device = mosaic.NewDevice(*workers)
	}
	if *chaosSpec != "" {
		if opts.Device == nil {
			return fmt.Errorf("-chaos needs a device stage (use -algorithm approximation-parallel or -gpu)")
		}
		plan, err := mosaic.ParseFaultSpec(*chaosSpec)
		if err != nil {
			return fmt.Errorf("-chaos: %w", err)
		}
		opts.Device.WithFaults(plan)
		opts.Resilience = &mosaic.Resilience{}
		fmt.Fprintf(os.Stderr, "mosaic: CHAOS DRILL ACTIVE — injecting %q\n", *chaosSpec)
	}

	// One registry backs every observability surface: the -metrics snapshot,
	// the -serve endpoint, and the convergence recorder's live cost gauge.
	observing := *traceOut || *metrics || *serveAddr != "" || *convPath != ""
	var (
		tree *mosaic.TraceTree
		reg  *telemetry.Registry
		rec  *telemetry.ConvergenceRecorder
	)
	if observing {
		tree = mosaic.NewTraceTree()
		reg = telemetry.NewRegistry()
		buildinfo.Register(reg, "mosaic")
		opts.Trace = trace.Multi(tree, telemetry.NewTraceCollector(reg))
		if opts.Device != nil {
			telemetry.RegisterDevice(reg, opts.Device, nil)
		}
		rec = telemetry.NewConvergenceRecorder(reg)
		opts.Search.Progress = rec.Sweep
		opts.Anneal.Progress = rec.Anneal
	}
	if *serveAddr != "" {
		// pprof exposes heap contents and stack traces; keep it off unless
		// the bind is loopback-only.
		var muxOpts []telemetry.MuxOption
		pprofNote := ""
		if telemetry.IsLoopback(*serveAddr) {
			muxOpts = append(muxOpts, telemetry.WithPProf())
			pprofNote = ", /debug/pprof/"
		}
		mux := telemetry.NewMux(reg, muxOpts...)
		mux.HandleFunc("/convergence.json", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = rec.WriteJSON(w)
		})
		server, err := telemetry.StartServer(*serveAddr, reg, mux)
		if err != nil {
			return err
		}
		defer server.Close()
		fmt.Fprintf(os.Stderr, "mosaic: telemetry on http://%s (/metrics, /healthz, /metrics.json, /convergence.json%s)\n", server.Addr, pprofNote)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// dump emits the single observability JSON document: spans when -trace,
	// counters + registry snapshot when -metrics, convergence samples when
	// recorded. Every duration field in it is nanoseconds (_ns suffix);
	// registry histograms are seconds, as their names state.
	dump := func() error {
		if *convPath != "" {
			if err := writeConvergence(*convPath, rec); err != nil {
				return err
			}
		}
		if !*traceOut && !*metrics {
			return nil
		}
		d := telemetry.Dump{}
		if *traceOut {
			d.Spans = tree.Roots()
		}
		d.Counters = tree.Counters()
		if *metrics {
			snap := reg.Snapshot()
			d.Registry = &snap
		}
		if samples := rec.Snapshot(); len(samples) > 0 {
			d.Convergence = samples
		}
		return telemetry.WriteDump(os.Stderr, d)
	}

	if *color {
		return runColor(ctx, *inputArg, *targetArg, *out, *size, opts, *quiet, dump)
	}
	input, err := loadGray(*inputArg, *size)
	if err != nil {
		return fmt.Errorf("input: %w", err)
	}
	target, err := loadGray(*targetArg, *size)
	if err != nil {
		return fmt.Errorf("target: %w", err)
	}
	res, err := mosaic.GenerateContext(ctx, input, target, opts)
	if err != nil {
		return err
	}
	if err := dump(); err != nil {
		return err
	}
	if err := saveGray(*out, res.Mosaic); err != nil {
		return err
	}
	if !*quiet {
		// Both stage times in one unit (ms), so the line never mixes µs/ms/s.
		fmt.Printf("%s → %s: S=%d×%d error=%d k=%d step2=%.1fms step3=%.1fms → %s\n",
			*inputArg, *targetArg, *tiles, *tiles, res.TotalError, res.SearchStats.Passes,
			float64(res.Timing.CostMatrix.Microseconds())/1e3,
			float64(res.Timing.Rearrange.Microseconds())/1e3, *out)
	}
	return nil
}

// writeConvergence writes the recorder's samples as JSON to path.
func writeConvergence(path string, rec *telemetry.ConvergenceRecorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runColor(ctx context.Context, inputArg, targetArg, out string, size int, opts mosaic.Options, quiet bool, dump func() error) error {
	input, err := loadRGB(inputArg, size)
	if err != nil {
		return fmt.Errorf("input: %w", err)
	}
	target, err := loadRGB(targetArg, size)
	if err != nil {
		return fmt.Errorf("target: %w", err)
	}
	res, err := mosaic.GenerateRGBContext(ctx, input, target, opts)
	if err != nil {
		return err
	}
	if err := dump(); err != nil {
		return err
	}
	if err := saveRGB(out, res.Mosaic); err != nil {
		return err
	}
	if !quiet {
		fmt.Printf("%s → %s (color): error=%d → %s\n", inputArg, targetArg, res.TotalError, out)
	}
	return nil
}

// loadGray resolves a scene name or decodes a file, resampling to n×n.
func loadGray(arg string, n int) (*mosaic.Gray, error) {
	if img, err := mosaic.Scene(arg, n); err == nil {
		return img, nil
	} else if _, statErr := os.Stat(arg); statErr != nil {
		return nil, fmt.Errorf("%q is neither a scene nor a readable file (%v)", arg, err)
	}
	img, err := loadFileGray(arg)
	if err != nil {
		return nil, err
	}
	if img.W != n || img.H != n {
		img = img.ResizeBilinear(n, n)
	}
	return img, nil
}

func loadFileGray(path string) (*mosaic.Gray, error) {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".pgm":
		return mosaic.LoadPGM(path)
	case ".ppm":
		rgb, err := mosaic.LoadPPM(path)
		if err != nil {
			return nil, err
		}
		return rgb.Gray(), nil
	case ".png":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		img, err := png.Decode(f)
		if err != nil {
			return nil, err
		}
		return imgutil.GrayFromImage(img), nil
	}
	return nil, fmt.Errorf("unsupported extension on %q (want .pgm, .ppm or .png)", path)
}

func loadRGB(arg string, n int) (*mosaic.RGB, error) {
	if img, err := mosaic.SceneRGB(arg, n); err == nil {
		return img, nil
	}
	var img *mosaic.RGB
	switch strings.ToLower(filepath.Ext(arg)) {
	case ".ppm":
		var err error
		img, err = mosaic.LoadPPM(arg)
		if err != nil {
			return nil, err
		}
	case ".png":
		f, err := os.Open(arg)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		dec, err := png.Decode(f)
		if err != nil {
			return nil, err
		}
		img = imgutil.RGBFromImage(dec)
	default:
		return nil, fmt.Errorf("unsupported color input %q", arg)
	}
	if img.W != n || img.H != n {
		// Nearest-neighbour via the gray path per channel would lose color;
		// use a simple nearest resample inline.
		img = resizeRGBNearest(img, n, n)
	}
	return img, nil
}

func resizeRGBNearest(m *mosaic.RGB, w, h int) *mosaic.RGB {
	out := mosaic.NewRGB(w, h)
	for y := 0; y < h; y++ {
		sy := y * m.H / h
		for x := 0; x < w; x++ {
			sx := x * m.W / w
			r, g, b := m.At(sx, sy)
			out.Set(x, y, r, g, b)
		}
	}
	return out
}

func saveGray(path string, img *mosaic.Gray) error {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".pgm":
		return mosaic.SavePGM(path, img)
	case ".png", "":
		return mosaic.SavePNG(path, img)
	}
	return fmt.Errorf("unsupported output extension on %q", path)
}

func saveRGB(path string, img *mosaic.RGB) error {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".ppm":
		return mosaic.SavePPM(path, img)
	case ".png", "":
		return mosaic.SavePNGRGB(path, img)
	}
	return fmt.Errorf("unsupported output extension on %q", path)
}
