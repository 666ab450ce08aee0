package main

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
)

// smallCold is cold-upload shrunk to 128² at S=16², so a run takes seconds.
// Under -race the open-loop rate drops so the instrumented system keeps up.
func smallCold(t *testing.T, seed uint64, slow string) *report {
	t.Helper()
	rate := 10.0
	if raceEnabled {
		rate = 1
	}
	cfg := config{
		workload:   "cold-upload",
		seed:       seed,
		seconds:    2,
		outDir:     t.TempDir(),
		benchFile:  "../BENCHMARK.json",
		slowKernel: slow,
		shape:      shape{size: 128, tiles: 16, rate: rate},
	}
	rep, err := run(cfg)
	if err != nil {
		t.Fatalf("run seed %d (slow-kernel %q): %v", seed, slow, err)
	}
	if !rep.line().Correct {
		t.Fatalf("run seed %d (slow-kernel %q) failed its checks: %v", seed, slow, rep.Failures)
	}
	return rep
}

// TestComparisonFlagsSlowedKernel is the negative control: slowing the
// Step-2 cost-matrix kernel through the service's DeviceFaults hook (a
// latency-only cuda.ParseFaultSpec plan) must be flagged as a regression,
// while the slowed runs' exact work counters stay those of the baseline.
func TestComparisonFlagsSlowedKernel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark six times")
	}
	def, err := loadDefinition("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var base, slowed []*report
	for seed := uint64(1); seed <= 3; seed++ {
		base = append(base, smallCold(t, seed, ""))
		slowed = append(slowed, smallCold(t, seed, "kernel=cost-matrix,delay=40ms"))
	}

	if raceEnabled {
		t.Skip("ran the benchmark under -race; timing comparisons need an uninstrumented build")
	}
	findings, err := compareReports(def, base, base)
	if err != nil || len(findings) != 0 {
		t.Fatalf("baseline against itself: findings %v, err %v", findings, err)
	}
	findings, err = compareReports(def, base, slowed)
	if err != nil {
		t.Fatal(err)
	}
	flagged := map[string]bool{}
	for _, f := range findings {
		flagged[f.Metric] = true
	}
	if !flagged["latency_p50_ms"] || !flagged["mosaics_per_s"] {
		t.Fatalf("slowed cost-matrix kernel not flagged on latency and throughput; findings: %v", findings)
	}
	if flagged["exact counters"] || flagged["error_per_pixel"] {
		t.Fatalf("a pure delay changed work or answers; findings: %v", findings)
	}

	other := *slowed[0]
	other.Fingerprint.NumCPU++
	if _, err := compareReports(def, base, []*report{&other}); !errors.Is(err, errFingerprint) {
		t.Fatalf("comparison across host fingerprints: err %v, want errFingerprint", err)
	}
}

// TestCheckerRejectsWrongAnswers shows the output check accepts the
// pipeline's answer and rejects a wrong pixel or a wrong reported error.
func TestCheckerRejectsWrongAnswers(t *testing.T) {
	p := pairSpec{seed: 7, idx: 1, a: 0, b: 3, size: 64}
	in, tgt := p.images()
	res, err := core.GenerateContext(context.Background(), in, tgt, core.Options{TilesPerSide: 8})
	if err != nil {
		t.Fatal(err)
	}
	chk := newChecker()
	if err := chk.checkImage(p, 8, res.Mosaic, res.TotalError); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	if err := chk.checkImage(p, 8, res.Mosaic, res.TotalError+1); err == nil {
		t.Fatal("wrong total_error accepted")
	}
	bad := res.Mosaic.Clone()
	bad.Pix[0] ^= 1
	if err := chk.checkImage(p, 8, bad, res.TotalError); err == nil {
		t.Fatal("mosaic with a changed pixel accepted")
	}
}
