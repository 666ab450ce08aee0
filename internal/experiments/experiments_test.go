package experiments

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/synth"
)

// tinyConfig keeps experiment tests fast: 64px images, S = 4² and 8².
func tinyConfig() Config {
	return Config{
		Sizes:      []int{64},
		TileCounts: []int{4, 8},
		Pairs:      []Pair{{synth.Lena, synth.Sailboat}},
	}
}

func TestValidate(t *testing.T) {
	cfg := tinyConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := tinyConfig()
	bad.TileCounts = []int{7}
	if err := bad.Validate(); err == nil {
		t.Error("accepted indivisible tile count")
	}
	bad = tinyConfig()
	bad.Pairs = []Pair{{"nope", synth.Lena}}
	if err := bad.Validate(); err == nil {
		t.Error("accepted unknown scene")
	}
	bad = tinyConfig()
	bad.Sizes = nil
	if err := bad.Validate(); err == nil {
		t.Error("accepted empty sizes")
	}
}

func TestNewConfigMatchesPaperGrid(t *testing.T) {
	cfg := NewConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Sizes) != 3 || cfg.Sizes[0] != 512 || cfg.Sizes[2] != 2048 {
		t.Errorf("sizes %v", cfg.Sizes)
	}
	if len(cfg.TileCounts) != 3 || cfg.TileCounts[2] != 64 {
		t.Errorf("tile counts %v", cfg.TileCounts)
	}
	if len(cfg.Pairs) != 4 {
		t.Errorf("pairs %v", cfg.Pairs)
	}
}

func TestTable1ShapesHold(t *testing.T) {
	cfg := tinyConfig()
	var buf bytes.Buffer
	cfg.Out = &buf
	rows, err := cfg.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, c := range rows {
		// Optimization must not lose to either approximation.
		if c.ErrOpt > c.ErrApproxCPU || c.ErrOpt > c.ErrApproxGPU {
			t.Errorf("S=%d²: optimization %d vs approx cpu %d gpu %d",
				c.Tiles, c.ErrOpt, c.ErrApproxCPU, c.ErrApproxGPU)
		}
		// Approximation close to optimal (paper: within a few percent).
		if float64(c.ErrApproxCPU) > 1.2*float64(c.ErrOpt) {
			t.Errorf("S=%d²: approximation %d too far above optimum %d", c.Tiles, c.ErrApproxCPU, c.ErrOpt)
		}
	}
	// Error decreases as S grows (more, smaller tiles → finer reproduction).
	if rows[1].ErrOpt >= rows[0].ErrOpt {
		t.Errorf("error did not fall with S: %d → %d", rows[0].ErrOpt, rows[1].ErrOpt)
	}
	if !strings.Contains(buf.String(), "Table I") {
		t.Error("Table I header missing from output")
	}
}

func TestSweepAndTables(t *testing.T) {
	cfg := tinyConfig()
	var buf bytes.Buffer
	cfg.Out = &buf
	cells, err := cfg.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("%d cells", len(cells))
	}
	for _, c := range cells {
		if c.Step2CPU <= 0 || c.Step2GPU <= 0 || c.Step3ApproxCPU <= 0 || c.Step3ApproxGPU <= 0 {
			t.Errorf("cell %dx%d has non-positive timings: %+v", c.N, c.Tiles, c)
		}
		if c.Step3ApproxDirty <= 0 {
			t.Errorf("cell %dx%d missing ablation timings: %+v", c.N, c.Tiles, c)
		}
		if c.OptSkipped {
			t.Errorf("optimization skipped without MaxOptimizationS")
		}
		if c.PassesSerial < 1 || c.PassesDirty < 1 || c.PassesParallel < 1 {
			t.Errorf("pass counts missing: %+v", c)
		}
		if c.ErrApproxDirty != c.ErrApproxCPU {
			t.Errorf("dirty search error %d != serial %d", c.ErrApproxDirty, c.ErrApproxCPU)
		}
		if c.AttemptsSerial <= 0 || c.AttemptsDirty <= 0 || c.AttemptsDirty > c.AttemptsSerial {
			t.Errorf("attempt counts wrong: serial=%d dirty=%d", c.AttemptsSerial, c.AttemptsDirty)
		}
	}
	cfg.Table2(cells)
	cfg.Table3(cells)
	cfg.Table4(cells)
	out := buf.String()
	for _, want := range []string{"Table II", "Table III", "Table IV", "Dirty×", "GPU×", "Speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestMaxOptimizationSSkips(t *testing.T) {
	cfg := tinyConfig()
	cfg.MaxOptimizationS = 16 // allows 4², skips 8²
	rows, err := cfg.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].OptSkipped {
		t.Error("S=16 skipped despite cap 16")
	}
	if !rows[1].OptSkipped {
		t.Error("S=64 not skipped with cap 16")
	}
	if rows[1].ErrOpt != 0 || rows[1].Step3Opt != 0 {
		t.Error("skipped cell carries optimization results")
	}
}

func TestFigures(t *testing.T) {
	cfg := Config{
		Sizes:      []int{64},
		TileCounts: []int{4},
		Pairs:      PaperPairs(),
	}
	dir := t.TempDir()
	var buf bytes.Buffer
	cfg.Out = &buf

	f2, err := cfg.Figure2(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(f2) != 4 {
		t.Errorf("figure 2: %d panels", len(f2))
	}
	f7, err := cfg.Figure7(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(f7) != 3 { // one tile count × three variants
		t.Errorf("figure 7: %d panels", len(f7))
	}
	f8, err := cfg.Figure8(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(f8) != 9 { // three pairs × three panels
		t.Errorf("figure 8: %d panels", len(f8))
	}
	// Every reported path must exist and be a PNG.
	for _, fr := range append(append(f2, f7...), f8...) {
		if fr.Path == "" {
			t.Errorf("%s: no path with an output dir configured", fr.Label)
			continue
		}
		data, err := os.ReadFile(fr.Path)
		if err != nil {
			t.Errorf("%s: %v", fr.Label, err)
			continue
		}
		if len(data) < 8 || data[1] != 'P' || data[2] != 'N' || data[3] != 'G' {
			t.Errorf("%s: not a PNG", fr.Label)
		}
		if filepath.Ext(fr.Path) != ".png" {
			t.Errorf("%s: unexpected extension", fr.Path)
		}
	}
	// Figure 7 mosaics must carry errors; optimization ≤ approximations.
	var opt, cpu int64
	for _, fr := range f7 {
		if fr.Error <= 0 {
			t.Errorf("%s: missing error", fr.Label)
		}
		if strings.Contains(fr.Label, "optimization") {
			opt = fr.Error
		}
		if strings.Contains(fr.Label, "approx-cpu") {
			cpu = fr.Error
		}
	}
	if opt > cpu {
		t.Errorf("figure 7: optimization error %d above approximation %d", opt, cpu)
	}
}

func TestFiguresWithoutDir(t *testing.T) {
	cfg := tinyConfig()
	out, err := cfg.Figure2("")
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range out {
		if fr.Path != "" {
			t.Errorf("%s: path %q without an output dir", fr.Label, fr.Path)
		}
	}
}

func TestMeasureAdaptiveRepetition(t *testing.T) {
	// Fast bodies must be repeated (result well under the 50ms floor)...
	d := measure(func() { time.Sleep(20 * time.Microsecond) })
	if d > 10*time.Millisecond {
		t.Errorf("fast body measured as %v", d)
	}
	if d <= 0 {
		t.Error("non-positive measurement")
	}
	// ...and slow bodies run exactly once (duration ≈ body time).
	d = measure(func() { time.Sleep(60 * time.Millisecond) })
	if d < 55*time.Millisecond || d > 200*time.Millisecond {
		t.Errorf("slow body measured as %v", d)
	}
}

func TestSpeedupGuardsZero(t *testing.T) {
	if speedup(time.Second, 0) != 0 {
		t.Error("zero denominator not guarded")
	}
	if s := speedup(2*time.Second, time.Second); s != 2 {
		t.Errorf("speedup = %v", s)
	}
}

func TestPairString(t *testing.T) {
	p := Pair{synth.Lena, synth.Sailboat}
	if p.String() != "lena → sailboat" {
		t.Errorf("Pair.String() = %q", p.String())
	}
}

func TestVirtualModeSweep(t *testing.T) {
	cfg := tinyConfig()
	cfg.VirtualSMs = 4
	cfg.VirtualLaunchOverhead = 2 * time.Microsecond
	cfg.VirtualCoresPerSM = 8
	cells, err := cfg.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Step2GPU <= 0 || c.Step3ApproxGPU <= 0 {
			t.Errorf("virtual timings not recorded: %+v", c)
		}
		// Virtual GPU Step-2 must beat the serial CPU: the modelled device
		// has 4×8 = 32 parallel lanes and the kernel saturates them.
		if c.Step2GPU >= c.Step2CPU {
			t.Errorf("N=%d S=%d²: virtual Step-2 %v not below CPU %v", c.N, c.Tiles, c.Step2GPU, c.Step2CPU)
		}
	}
}

func TestVirtualModeRejectsBadModel(t *testing.T) {
	cfg := tinyConfig()
	cfg.VirtualSMs = 2
	cfg.VirtualLaunchOverhead = -time.Second
	if _, err := cfg.Sweep(); err == nil {
		t.Error("accepted negative launch overhead")
	}
}

func TestRunAllTables(t *testing.T) {
	cfg := tinyConfig()
	var buf bytes.Buffer
	cfg.Out = &buf
	cells, err := cfg.RunAllTables()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("%d cells", len(cells))
	}
	out := buf.String()
	for _, want := range []string{"Table I", "Table II", "Table III", "Table IV"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestSweepRejectsEmptyPairs(t *testing.T) {
	cfg := tinyConfig()
	cfg.Pairs = nil
	if _, err := cfg.Sweep(); err == nil {
		t.Error("Sweep accepted empty pairs")
	}
	if _, err := cfg.Table1(); err == nil {
		t.Error("Table1 accepted empty pairs")
	}
}

func TestQuickConfigValid(t *testing.T) {
	cfg := QuickConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Pairs) != 1 {
		t.Errorf("quick config has %d pairs", len(cfg.Pairs))
	}
}

func TestFigure1(t *testing.T) {
	cfg := Config{
		Sizes:      []int{64},
		TileCounts: []int{8},
		Pairs:      []Pair{{synth.Lena, synth.Sailboat}},
	}
	dir := t.TempDir()
	out, err := cfg.Figure1(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("%d panels", len(out))
	}
	var mosaicErr int64
	for _, fr := range out {
		if fr.Path == "" {
			t.Errorf("%s: missing path", fr.Label)
		}
		if strings.Contains(fr.Label, "database-mosaic") {
			mosaicErr = fr.Error
		}
	}
	if mosaicErr <= 0 {
		t.Error("figure 1 mosaic carries no error")
	}
}

func TestWriteCellsCSV(t *testing.T) {
	cfg := tinyConfig()
	cfg.MaxOptimizationS = 16 // exercise the skipped-columns path at 8²
	cells, err := cfg.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCellsCSV(cells, &buf); err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(&buf)
	rows, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1+len(cells) {
		t.Fatalf("%d csv rows for %d cells", len(rows), len(cells))
	}
	if rows[0][0] != "image_size" {
		t.Errorf("header: %v", rows[0])
	}
	// First data row: S = 16, optimization present.
	if rows[1][2] != "16" || rows[1][18] != "false" || rows[1][9] == "" {
		t.Errorf("row 1: %v", rows[1])
	}
	// Second data row: S = 64, optimization skipped → empty columns.
	if rows[2][18] != "true" || rows[2][5] != "" || rows[2][9] != "" {
		t.Errorf("row 2: %v", rows[2])
	}
	// Every duration parses as a float.
	for _, col := range []int{3, 4, 6, 7, 8} {
		if _, err := strconv.ParseFloat(rows[1][col], 64); err != nil {
			t.Errorf("column %d not numeric: %q", col, rows[1][col])
		}
	}
	// The dirty search replays the serial one: identical error, fewer or
	// equal attempts.
	if rows[1][10] != rows[1][11] {
		t.Errorf("dirty error %q != serial error %q", rows[1][11], rows[1][10])
	}
	as, _ := strconv.ParseInt(rows[1][16], 10, 64)
	ad, _ := strconv.ParseInt(rows[1][17], 10, 64)
	if as <= 0 || ad <= 0 || ad > as {
		t.Errorf("attempts serial=%d dirty=%d", as, ad)
	}
}
