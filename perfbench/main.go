// Command perfbench is the repository's benchmark: it builds the photomosaic
// system in-process, drives one seeded workload against it, checks every
// answer, and prints one JSON result line.
//
//	go build -o perfbench . && ./perfbench --workload cold-upload --seed 1 --seconds 20 --trace 0
//	./perfbench compare -base 'old/*.json' -new 'new/*.json'
//
// Run it from the repository root (perfbench/run.py does the build). With
// --trace 0 the result carries the end-to-end metrics of BENCHMARK.json; with
// --trace 1 a separate traced run reports the per-layer metrics and writes a
// span file. Every run also writes a full report (host fingerprint, sample
// counts, open-loop generator health, exact work counters) to .bench_out/.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// outDir receives the report, span and exact-count files.
	outDir string
	// benchFile is BENCHMARK.json, the source of metric names, units and
	// regression bounds.
	benchFile string
	// slowKernel, when set, is a cuda.ParseFaultSpec plan installed on every
	// service device through service.Config.DeviceFaults — the negative
	// control (perfbench_test.go) that proves the comparison flags a slowed
	// kernel.
	slowKernel string
	// shape overrides the workload's image geometry and load (tests use
	// small shapes); the zero value selects the workload's own.
	shape shape
}

// shape is the input geometry and load level of a workload.
type shape struct {
	size, tiles int
	rate        float64 // open-loop requests per second
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	cfg := config{outDir: ".bench_out", benchFile: "BENCHMARK.json"}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	fs.StringVar(&cfg.workload, "workload", "", "cold-upload | warm-cluster | exact-s64")
	fs.Uint64Var(&cfg.seed, "seed", 1, "input seed: the same seed generates the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured time of one run")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	_ = fs.Parse(os.Args[1:])
	cfg.trace = *traceFlag != 0
	if cfg.seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	rep, err := run(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	line, err := json.Marshal(rep.line())
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// run executes one benchmark invocation and writes its report file.
func run(cfg config) (*report, error) {
	def, err := loadDefinition(cfg.benchFile)
	if err != nil {
		return nil, err
	}
	wl, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown --workload %q (want one of %v)", cfg.workload, workloadNames())
	}
	if cfg.shape == (shape{}) {
		cfg.shape = wl.shape
	}
	rep := newReport(cfg)
	steal0, total0 := stealTicks()
	if cfg.trace {
		err = wl.traced(cfg, rep)
	} else {
		err = wl.run(cfg, rep)
	}
	if steal1, total1 := stealTicks(); total1 > total0 {
		rep.note("host_steal_frac", float64(steal1-steal0)/float64(total1-total0))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	rep.finish(def)
	if err := checkExact(cfg, rep); err != nil {
		rep.fail("exact counters: %v", err)
	}
	if err := rep.write(); err != nil {
		return nil, err
	}
	rep.printSummary(os.Stderr)
	if rep.Invalid != "" {
		return nil, fmt.Errorf("run invalid, no latency reported: %s", rep.Invalid)
	}
	return rep, nil
}

// workload is one seeded traffic mix; BENCHMARK.json records why each one
// is in the benchmark.
type workload struct {
	shape  shape
	run    func(cfg config, rep *report) error
	traced func(cfg config, rep *report) error
}

var workloads = map[string]workload{
	"cold-upload": {
		shape:  shape{size: 512, tiles: 32, rate: 3},
		run:    runColdUpload,
		traced: tracedColdUpload,
	},
	"warm-cluster": {
		shape:  shape{size: 512, tiles: 32, rate: 4},
		run:    runWarmCluster,
		traced: tracedWarmCluster,
	},
	"exact-s64": {
		shape:  shape{size: 512, tiles: 64},
		run:    runExactS64,
		traced: tracedExactS64,
	},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is everything one run learned; it is written to
// <out>/results/<workload>-seed<n>-trace<t>-<unix-nanos>.json.
type report struct {
	Workload    string                 `json:"workload"`
	Seed        uint64                 `json:"seed"`
	Traced      bool                   `json:"traced"`
	Seconds     float64                `json:"seconds"`
	SlowKernel  string                 `json:"slow_kernel,omitempty"`
	Fingerprint fingerprint            `json:"fingerprint"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Failures    []string               `json:"failures,omitempty"`
	Values      map[string]float64     `json:"values"`
	Metrics     map[string]metricValue `json:"metrics"`
	// Samples records how many observations stand behind each timing.
	Samples map[string]int `json:"samples"`
	// Generator is the open-loop generator's health; a lagging generator or
	// a growing backlog makes the run Invalid.
	Generator *genHealth `json:"generator,omitempty"`
	Invalid   string     `json:"invalid,omitempty"`
	// Exact holds the work counters that must repeat exactly for a seed.
	Exact map[string]int64 `json:"exact"`
	// Notes carries per-layer self times and other explanations.
	Notes map[string]any `json:"notes,omitempty"`

	outDir string
}

func newReport(cfg config) *report {
	return &report{
		Workload:    cfg.workload,
		Seed:        cfg.seed,
		Traced:      cfg.trace,
		Seconds:     cfg.seconds,
		SlowKernel:  cfg.slowKernel,
		Fingerprint: hostFingerprint(),
		Values:      map[string]float64{},
		Samples:     map[string]int{},
		Exact:       map[string]int64{},
		Notes:       map[string]any{},
		outDir:      cfg.outDir,
	}
}

func (r *report) set(name string, v float64) { r.Values[name] = v }
func (r *report) note(name string, v any)    { r.Notes[name] = v }
func (r *report) exact(name string, v int64) { r.Exact[name] = v }
func (r *report) samples(name string, n int) { r.Samples[name] = n }
func (r *report) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.Failures = append(r.Failures, msg)
	fmt.Fprintln(os.Stderr, "perfbench: FAILED:", msg)
}

// count records one attempted operation and whether its output checked out.
func (r *report) count(ok bool) {
	r.Attempted++
	if !ok {
		r.Failed++
	}
}

// finish selects the metrics the mode reports and checks that the run
// produced exactly the metrics BENCHMARK.json names.
func (r *report) finish(def *definition) {
	want := def.EndToEnd
	if r.Traced {
		want = def.PerLayer
	}
	r.Metrics = map[string]metricValue{}
	for _, m := range want {
		v, ok := r.Values[m.Name]
		if !ok {
			r.fail("metric %s was not measured", m.Name)
			continue
		}
		r.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
}

func (r *report) line() resultLine {
	return resultLine{
		Correct:   len(r.Failures) == 0 && r.Attempted > 0,
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   r.Metrics,
	}
}

func (r *report) write() error {
	dir := filepath.Join(r.outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", r.Workload, r.Seed, b2i(r.Traced), time.Now().UnixNano())
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

func (r *report) printSummary(f *os.File) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(f, "perfbench: %s seed=%d traced=%v attempted=%d failed=%d host=%s\n",
		r.Workload, r.Seed, r.Traced, r.Attempted, r.Failed, r.Fingerprint)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(f, "  %-34s %14.4f %-6s n=%d\n", n, m.Value, m.Unit, r.Samples[n])
	}
	if g := r.Generator; g != nil {
		fmt.Fprintf(f, "  open-loop generator: %d scheduled, lag p99 %.2f ms max %.2f ms, backlog %.2f → %.2f\n",
			g.Scheduled, g.LagP99MS, g.LagMaxMS, g.BacklogFirst, g.BacklogLast)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// definition is the part of BENCHMARK.json the benchmark needs.
type definition struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadDefinition(path string) (*definition, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchmark definition: %w", err)
	}
	def := &definition{}
	if err := json.Unmarshal(data, def); err != nil {
		return nil, fmt.Errorf("benchmark definition %s: %w", path, err)
	}
	if len(def.EndToEnd) == 0 || len(def.PerLayer) == 0 {
		return nil, errors.New("benchmark definition names no metrics")
	}
	return def, nil
}

// nproc is the load generator's concurrency and the servers' worker count.
func nproc() int { return runtime.NumCPU() }
