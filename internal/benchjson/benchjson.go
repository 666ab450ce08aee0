// Package benchjson executes a pinned pipeline workload and serialises its
// performance trajectory as machine-readable JSON — the BENCH_pipeline.json
// artifact committed at the repository root and regenerated by
// `make bench-json`. Where mosaicbench reproduces the paper's human-readable
// tables, benchjson emits the same quantities (stage timings, sweep counts,
// final cost) in a stable schema that successive commits can be diffed and
// plotted against, seeding the repo's performance history.
//
// The workload is pinned — same scenes, size, tile grid and search
// configuration every run — so two reports differ only by host and by the
// code between the commits that produced them. Costs are exactly
// reproducible (the serial search is deterministic and the parallel search
// converges to a swap-local optimum of the same matrix); timings carry the
// host fingerprint recorded in the Host block.
package benchjson

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/imgutil"
	"repro/internal/localsearch"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/tilestore"
)

// SchemaVersion identifies the report layout; bump on breaking changes.
// v2: host records cpus/gomaxprocs/device_workers separately, workloads name
// their Step-2 builder, and search blocks carry the attempted pair count.
// v3: the report records the columnar tile-store layout (tile_store block:
// padded block size, padding bytes, per-tile stats bytes) the Step-2
// builders stream, since cost_matrix_ns now measures the store-backed path
// with the gather fused into preprocessing.
// v4: stages split the Step-3 exact-matching time out of rearrange_ns into
// its own assign_ns, and the report gains an assign block comparing the
// exact JV baseline against the certified approximate solvers
// (auction-device, sinkhorn) on a larger pinned instance (tiles = size/8,
// so the committed 512 report solves S = 64² = 4096).
const SchemaVersion = 4

// Workload pins what a run executes.
type Workload struct {
	Input     string `json:"input"`
	Target    string `json:"target"`
	Size      int    `json:"size"`
	Tiles     int    `json:"tiles_per_side"`
	Algorithm string `json:"algorithm"`
	Metric    string `json:"metric"`
	Builder   string `json:"builder,omitempty"` // Step-2 target the run used: "blocked" (host) or "device"
	Workers   int    `json:"workers,omitempty"` // device pool size, parallel runs only
}

// Host fingerprints the machine a report was measured on.
type Host struct {
	GoVersion string `json:"go_version"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	// CPUs is the physical parallelism (runtime.NumCPU); GoMaxProcs is the
	// scheduler's budget, which clamps both worker pools and the race
	// throughput of the parallel runs when the two differ.
	CPUs       int `json:"cpus"`
	GoMaxProcs int `json:"gomaxprocs"`
	// DeviceWorkers is the worker-pool size cuda.New(0) resolves to on this
	// host — the virtual SM count of the device-backed runs.
	DeviceWorkers int `json:"device_workers"`
}

// Stages are the per-stage wall times in nanoseconds, matching the paper's
// table decomposition (TotalNS is the Step-2 + Step-3 quantity of Table IV).
// Since schema v4 RearrangeNS excludes the exact-matching time, which gets
// its own AssignNS — the local-search and solver trajectories move
// independently, so mixing them hid solver regressions inside rearrange_ns.
// Approximation runs solve no assignment and report assign_ns = 0.
type Stages struct {
	PreprocessNS int64 `json:"preprocess_ns"`
	CostMatrixNS int64 `json:"cost_matrix_ns"`
	AssignNS     int64 `json:"assign_ns"`
	RearrangeNS  int64 `json:"rearrange_ns"`
	AssembleNS   int64 `json:"assemble_ns"`
	TotalNS      int64 `json:"step2_plus_step3_ns"`
}

// Search summarises the Step-3 outcome. Attempts counts improving-swap tests
// actually evaluated: exhaustive sweeps test S(S−1)/2 pairs per sweep, the
// dirty-tracked search skips pairs whose endpoints have not moved.
type Search struct {
	Sweeps    int   `json:"sweeps"`
	Swaps     int64 `json:"swaps"`
	Attempts  int64 `json:"swap_attempts"`
	FinalCost int64 `json:"final_cost"`
}

// Run is one pipeline execution of the pinned workload.
type Run struct {
	Workload    Workload                      `json:"workload"`
	Stages      Stages                        `json:"stages"`
	Search      Search                        `json:"search"`
	Counters    map[string]int64              `json:"counters,omitempty"`
	Convergence []telemetry.ConvergenceSample `json:"convergence,omitempty"`
}

// Report is the full BENCH_pipeline.json document.
type Report struct {
	Schema    int    `json:"schema"`
	Name      string `json:"name"`
	CreatedAt string `json:"created_at"`
	Host      Host   `json:"host"`
	// TileStore is the columnar store layout of the pinned workload's tile
	// side — the memory shape behind the cost_matrix_ns figures.
	TileStore tilestore.Layout `json:"tile_store"`
	Runs      []Run            `json:"runs"`
	// Assign compares the Step-3 exact matchers (JV baseline vs the
	// certified approximate solvers) on a larger pinned instance; see
	// AssignBlock.
	Assign *AssignBlock `json:"assign,omitempty"`
}

// The pinned workload: the paper's headline configuration (512×512 images,
// 32×32 tiles) on the first evaluation pair.
const (
	pinnedInput  = "lena"
	pinnedTarget = "sailboat"
	pinnedSize   = 512
	pinnedTiles  = 32
)

// Execute runs the pinned workload — serial, dirty-tracked, and
// device-parallel approximation pipelines — and returns the report.
func Execute(ctx context.Context) (*Report, error) {
	return ExecuteSized(ctx, pinnedSize, pinnedTiles)
}

// ExecuteSized is Execute with the image size and tile grid overridden while
// keeping the pinned scenes and search configuration — the reduced-size
// variant backs the `make bench-smoke` regression tripwire. size ≤ 0 or
// tiles ≤ 0 select the pinned values.
func ExecuteSized(ctx context.Context, size, tiles int) (*Report, error) {
	if size <= 0 {
		size = pinnedSize
	}
	if tiles <= 0 {
		tiles = pinnedTiles
	}
	input, target, err := pinnedImages(size)
	if err != nil {
		return nil, err
	}
	dev := cuda.New(0)
	rep := &Report{
		Schema:    SchemaVersion,
		Name:      "pipeline",
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		Host: Host{
			GoVersion:     runtime.Version(),
			OS:            runtime.GOOS,
			Arch:          runtime.GOARCH,
			CPUs:          runtime.NumCPU(),
			GoMaxProcs:    runtime.GOMAXPROCS(0),
			DeviceWorkers: dev.Workers(),
		},
		TileStore: tilestore.LayoutFor(size / tiles),
	}

	serial := Workload{
		Input: pinnedInput, Target: pinnedTarget, Size: size, Tiles: tiles,
		Algorithm: string(core.Approximation), Metric: "l1",
		Builder: "blocked",
	}
	serialRun, err := execute(ctx, input, target, serial, nil)
	if err != nil {
		return nil, fmt.Errorf("benchjson: serial run: %w", err)
	}
	rep.Runs = append(rep.Runs, *serialRun)

	dirty := serial
	dirty.Algorithm = string(core.ApproximationDirty)
	dirtyRun, err := execute(ctx, input, target, dirty, nil)
	if err != nil {
		return nil, fmt.Errorf("benchjson: dirty run: %w", err)
	}
	rep.Runs = append(rep.Runs, *dirtyRun)
	// Self-check: the dirty-tracked search is by construction an exact replay
	// of the exhaustive serial sweep that merely skips pairs whose outcome is
	// already known. If it ever lands on a different cost or stops attempting
	// fewer pairs, the delta tracking has broken — fail the report rather
	// than commit misleading numbers.
	if dirtyRun.Search.FinalCost != serialRun.Search.FinalCost {
		return nil, fmt.Errorf("benchjson: dirty search cost %d != serial %d (replay invariant broken)",
			dirtyRun.Search.FinalCost, serialRun.Search.FinalCost)
	}
	if dirtyRun.Search.Attempts >= serialRun.Search.Attempts {
		return nil, fmt.Errorf("benchjson: dirty search attempted %d pairs, serial %d (no reduction)",
			dirtyRun.Search.Attempts, serialRun.Search.Attempts)
	}

	parallel := serial
	parallel.Algorithm = string(core.ParallelApproximation)
	parallel.Builder = "device"
	parallel.Workers = dev.Workers()
	run, err := execute(ctx, input, target, parallel, dev)
	if err != nil {
		return nil, fmt.Errorf("benchjson: parallel run: %w", err)
	}
	rep.Runs = append(rep.Runs, *run)

	rep.Assign, err = AssignComparison(ctx, size)
	if err != nil {
		return nil, fmt.Errorf("benchjson: assign comparison: %w", err)
	}
	return rep, nil
}

// pinnedImages renders the pinned scene pair at the given size.
func pinnedImages(size int) (input, target *imgutil.Gray, err error) {
	inScene, err := synth.ParseScene(pinnedInput)
	if err != nil {
		return nil, nil, err
	}
	tgtScene, err := synth.ParseScene(pinnedTarget)
	if err != nil {
		return nil, nil, err
	}
	if input, err = synth.Generate(inScene, size); err != nil {
		return nil, nil, err
	}
	if target, err = synth.Generate(tgtScene, size); err != nil {
		return nil, nil, err
	}
	return input, target, nil
}

// execute runs one pipeline over the prepared images.
func execute(ctx context.Context, input, target *imgutil.Gray, w Workload, dev *cuda.Device) (*Run, error) {
	rec := telemetry.NewConvergenceRecorder(nil)
	res, err := core.GenerateContext(ctx, input, target, core.Options{
		TilesPerSide: w.Tiles,
		Algorithm:    core.Algorithm(w.Algorithm),
		Device:       dev,
		Search:       localsearch.Options{Progress: rec.Sweep},
	})
	if err != nil {
		return nil, err
	}
	return &Run{
		Workload: w,
		Stages: Stages{
			PreprocessNS: res.Timing.Preprocess.Nanoseconds(),
			CostMatrixNS: res.Timing.CostMatrix.Nanoseconds(),
			AssignNS:     res.Timing.Assign.Nanoseconds(),
			RearrangeNS:  (res.Timing.Rearrange - res.Timing.Assign).Nanoseconds(),
			AssembleNS:   res.Timing.Assemble.Nanoseconds(),
			TotalNS:      res.Timing.Total().Nanoseconds(),
		},
		Search: Search{
			Sweeps:    res.SearchStats.Passes,
			Swaps:     res.SearchStats.Swaps,
			Attempts:  res.SearchStats.Attempts,
			FinalCost: res.TotalError,
		},
		Counters:    res.Stats.Counters,
		Convergence: rec.Snapshot(),
	}, nil
}

// WriteFile writes the report as indented JSON at path, creating or
// truncating it.
func (r *Report) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
