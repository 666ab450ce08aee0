package experiments

import (
	"fmt"
	"time"

	"repro/internal/assign"
	"repro/internal/edgecolor"
	"repro/internal/hist"
	"repro/internal/localsearch"
	"repro/internal/metric"
	"repro/internal/perm"
	"repro/internal/tilestore"
)

// Cell holds every measurement for one (pair, image size, tile count)
// combination — the unit all four tables aggregate.
type Cell struct {
	Pair  Pair
	N     int // image side
	Tiles int // tiles per side; S = Tiles²

	Step2CPU time.Duration // host error-matrix build (single core)
	Step2GPU time.Duration // device error-matrix build (the §V kernel)

	Step3Opt         time.Duration // exact matching (JV) on the CPU
	Step3ApproxCPU   time.Duration // Algorithm 1
	Step3ApproxDirty time.Duration // Algorithm 1 with dirty-pair tracking
	Step3ApproxGPU   time.Duration // Algorithm 2 on the device

	ErrOpt         int64 // Eq. (2) of the optimization result
	ErrApproxCPU   int64
	ErrApproxDirty int64
	ErrApproxGPU   int64

	PassesSerial   int // the paper's k for Algorithm 1
	PassesDirty    int
	PassesParallel int

	AttemptsSerial int64 // pair tests evaluated by the exhaustive sweeps
	AttemptsDirty  int64 // pair tests evaluated by the dirty-tracked search

	OptSkipped bool // exact matching skipped by MaxOptimizationS
}

// S returns the tile count of the cell.
func (c *Cell) S() int { return c.Tiles * c.Tiles }

// colorings caches one edge coloring per S within a sweep, mirroring the
// paper's "computed in advance" treatment (coloring time is excluded from
// Step-3 measurements).
type colorings map[int]*edgecolor.Coloring

func (cc colorings) get(s int) *edgecolor.Coloring {
	if c, ok := cc[s]; ok {
		return c
	}
	c := edgecolor.Complete(s)
	cc[s] = c
	return c
}

// runCell performs all measurements for one combination.
func (cfg *Config) runCell(p Pair, n, tiles int, cc colorings) (*Cell, error) {
	input, target, err := scenePair(p, n)
	if err != nil {
		return nil, err
	}
	matched, err := hist.Match(input, target)
	if err != nil {
		return nil, err
	}
	if n%tiles != 0 {
		return nil, fmt.Errorf("experiments: side %d not divisible by %d tiles", n, tiles)
	}
	inStore, err := tilestore.FromImage(matched, n/tiles)
	if err != nil {
		return nil, err
	}
	tgtStore, err := tilestore.FromImage(target, n/tiles)
	if err != nil {
		return nil, err
	}
	dev, err := cfg.device()
	if err != nil {
		return nil, err
	}
	cell := &Cell{Pair: p, N: n, Tiles: tiles}
	s := tiles * tiles

	// Step 2 on both execution targets. The host build's result is reused
	// for each Step-3 variant so all algorithms see the identical matrix (the
	// builders are bit-identical by construction — TestBuildersEquivalent).
	var costs *metric.Matrix
	cell.Step2CPU = measure(func() {
		m, err2 := metric.BuildStoreBlocked(inStore, tgtStore, metric.L1)
		if err2 != nil {
			panic(err2)
		}
		costs = m
	})
	cell.Step2GPU = cfg.measureDevice(dev, func() {
		if _, err2 := metric.BuildStoreDevice(dev, inStore, tgtStore, metric.L1); err2 != nil {
			panic(err2)
		}
	})

	// Step 3: exact matching.
	if cfg.MaxOptimizationS > 0 && s > cfg.MaxOptimizationS {
		cell.OptSkipped = true
	} else {
		solve := assign.Solvers()[cfg.solverAlgo()]
		var opt perm.Perm
		cell.Step3Opt = measure(func() {
			q, err2 := solve(s, costs.W)
			if err2 != nil {
				panic(err2)
			}
			opt = q
		})
		cell.ErrOpt = costs.Total(opt)
	}

	// Step 3: serial approximation.
	var pcpu perm.Perm
	var stCPU localsearch.Stats
	cell.Step3ApproxCPU = measure(func() {
		q, st, err2 := localsearch.Serial(costs, perm.Identity(s), localsearch.Options{Trace: cfg.Trace})
		if err2 != nil {
			panic(err2)
		}
		pcpu, stCPU = q, st
	})
	cell.ErrApproxCPU = costs.Total(pcpu)
	cell.PassesSerial = stCPU.Passes
	cell.AttemptsSerial = stCPU.Attempts

	// Step 3: dirty-tracked serial approximation (exact replay of Algorithm 1
	// with known-outcome pairs skipped).
	var pdirty perm.Perm
	var stDirty localsearch.Stats
	cell.Step3ApproxDirty = measure(func() {
		q, st, err2 := localsearch.SerialDirty(costs, perm.Identity(s), localsearch.Options{Trace: cfg.Trace})
		if err2 != nil {
			panic(err2)
		}
		pdirty, stDirty = q, st
	})
	cell.ErrApproxDirty = costs.Total(pdirty)
	cell.PassesDirty = stDirty.Passes
	cell.AttemptsDirty = stDirty.Attempts

	// Step 3: parallel approximation with a precomputed coloring.
	coloring := cc.get(s)
	var pgpu perm.Perm
	var stGPU localsearch.Stats
	cell.Step3ApproxGPU = cfg.measureDevice(dev, func() {
		q, st, err2 := localsearch.Parallel(dev, costs, perm.Identity(s), coloring, localsearch.Options{Trace: cfg.Trace})
		if err2 != nil {
			panic(err2)
		}
		pgpu, stGPU = q, st
	})
	cell.ErrApproxGPU = costs.Total(pgpu)
	cell.PassesParallel = stGPU.Passes
	return cell, nil
}

// Sweep runs every (size, tiles) combination, averaging times over the
// configured pairs, and returns one aggregate cell per combination (errors
// and pass counts are taken from the first pair, matching Table I's single-
// pair reporting).
func (cfg *Config) Sweep() ([]*Cell, error) {
	if len(cfg.Pairs) == 0 {
		return nil, fmt.Errorf("experiments: no scene pairs configured")
	}
	cc := colorings{}
	var out []*Cell
	for _, n := range cfg.Sizes {
		for _, tiles := range cfg.TileCounts {
			agg := &Cell{N: n, Tiles: tiles, Pair: cfg.Pairs[0]}
			for pi, p := range cfg.Pairs {
				cell, err := cfg.runCell(p, n, tiles, cc)
				if err != nil {
					return nil, err
				}
				agg.Step2CPU += cell.Step2CPU
				agg.Step2GPU += cell.Step2GPU
				agg.Step3Opt += cell.Step3Opt
				agg.Step3ApproxCPU += cell.Step3ApproxCPU
				agg.Step3ApproxDirty += cell.Step3ApproxDirty
				agg.Step3ApproxGPU += cell.Step3ApproxGPU
				agg.OptSkipped = agg.OptSkipped || cell.OptSkipped
				if pi == 0 {
					agg.ErrOpt = cell.ErrOpt
					agg.ErrApproxCPU = cell.ErrApproxCPU
					agg.ErrApproxDirty = cell.ErrApproxDirty
					agg.ErrApproxGPU = cell.ErrApproxGPU
					agg.PassesSerial = cell.PassesSerial
					agg.PassesDirty = cell.PassesDirty
					agg.PassesParallel = cell.PassesParallel
					agg.AttemptsSerial = cell.AttemptsSerial
					agg.AttemptsDirty = cell.AttemptsDirty
				}
			}
			np := time.Duration(len(cfg.Pairs))
			agg.Step2CPU /= np
			agg.Step2GPU /= np
			agg.Step3Opt /= np
			agg.Step3ApproxCPU /= np
			agg.Step3ApproxDirty /= np
			agg.Step3ApproxGPU /= np
			out = append(out, agg)
		}
	}
	return out, nil
}

// Table1 reproduces Table I: total error (Eq. 2) of the optimization,
// serial-approximation and parallel-approximation mosaics on the first
// configured pair at the smallest configured image size, across tile counts.
func (cfg *Config) Table1() ([]*Cell, error) {
	if len(cfg.Sizes) == 0 || len(cfg.Pairs) == 0 {
		return nil, fmt.Errorf("experiments: empty configuration")
	}
	n := cfg.Sizes[0]
	cc := colorings{}
	var rows []*Cell
	for _, tiles := range cfg.TileCounts {
		cell, err := cfg.runCell(cfg.Pairs[0], n, tiles, cc)
		if err != nil {
			return nil, err
		}
		rows = append(rows, cell)
	}
	w := cfg.out()
	fmt.Fprintf(w, "Table I — total error of the photomosaic images (%s, %d×%d)\n", cfg.Pairs[0], n, n)
	fmt.Fprintf(w, "%-8s %14s %16s %16s\n", "S", "Optimization", "Approx (CPU)", "Approx (GPU)")
	for _, c := range rows {
		opt := fmt.Sprintf("%d", c.ErrOpt)
		if c.OptSkipped {
			opt = "skipped"
		}
		fmt.Fprintf(w, "%-8s %14s %16d %16d\n",
			fmt.Sprintf("%dx%d", c.Tiles, c.Tiles), opt, c.ErrApproxCPU, c.ErrApproxGPU)
	}
	return rows, nil
}

// Table2 reproduces Table II: the Step-2 matrix on the host (CPU, the
// single-core blocked loop) and on the device (GPU, the §V kernel); GPU× =
// CPU/GPU is the paper's speed-up column.
func (cfg *Config) Table2(cells []*Cell) {
	w := cfg.out()
	fmt.Fprintf(w, "Table II — computing the error values between tiles in Step 2 (avg over %d pair(s))\n", len(cfg.Pairs))
	fmt.Fprintf(w, "%-12s %-8s %11s %11s %7s\n", "Image", "S", "CPU [s]", "GPU [s]", "GPU×")
	for _, c := range cells {
		fmt.Fprintf(w, "%-12s %-8s %11.4f %11.4f %7.2f\n",
			fmt.Sprintf("%dx%d", c.N, c.N), fmt.Sprintf("%dx%d", c.Tiles, c.Tiles),
			c.Step2CPU.Seconds(), c.Step2GPU.Seconds(), speedup(c.Step2CPU, c.Step2GPU))
	}
}

// Table3 reproduces Table III: Step-3 rearrangement time — exact matching on
// the CPU versus the serial, dirty-tracked and device local searches. The
// GPU speed-up column compares the two exhaustive implementations as the
// paper does; Dirty× is the delta-driven win over the exhaustive serial
// sweep, and Tested shows the fraction of pair tests the dirty search
// actually evaluated (it reaches the identical final assignment).
func (cfg *Config) Table3(cells []*Cell) {
	w := cfg.out()
	fmt.Fprintf(w, "Table III — rearrangement of tiles in Step 3 (avg over %d pair(s))\n", len(cfg.Pairs))
	fmt.Fprintf(w, "%-12s %-8s %13s %13s %13s %13s %7s %7s %8s\n",
		"Image", "S", "Opt CPU [s]", "Apx CPU [s]", "Dirty [s]", "Apx GPU [s]", "Dirty×", "GPU×", "Tested")
	for _, c := range cells {
		opt := fmt.Sprintf("%13.4f", c.Step3Opt.Seconds())
		if c.OptSkipped {
			opt = fmt.Sprintf("%13s", "skipped")
		}
		tested := "-"
		if c.AttemptsSerial > 0 {
			tested = fmt.Sprintf("%7.1f%%", 100*float64(c.AttemptsDirty)/float64(c.AttemptsSerial))
		}
		fmt.Fprintf(w, "%-12s %-8s %s %13.4f %13.4f %13.4f %7.2f %7.2f %8s\n",
			fmt.Sprintf("%dx%d", c.N, c.N), fmt.Sprintf("%dx%d", c.Tiles, c.Tiles),
			opt, c.Step3ApproxCPU.Seconds(), c.Step3ApproxDirty.Seconds(), c.Step3ApproxGPU.Seconds(),
			speedup(c.Step3ApproxCPU, c.Step3ApproxDirty),
			speedup(c.Step3ApproxCPU, c.Step3ApproxGPU), tested)
	}
}

// Table4 reproduces Table IV: end-to-end generation time. For the
// optimization pipeline the device accelerates only Step 2 (matching stays
// on the CPU, §V); for the approximation pipeline both steps move over.
func (cfg *Config) Table4(cells []*Cell) {
	w := cfg.out()
	fmt.Fprintf(w, "Table IV — total photomosaic generation time (avg over %d pair(s))\n", len(cfg.Pairs))
	fmt.Fprintf(w, "%-12s %-8s | %12s %12s %8s | %12s %12s %8s\n",
		"Image", "S", "Opt CPU", "Opt CPU+GPU", "Speedup", "Apx CPU", "Apx GPU", "Speedup")
	for _, c := range cells {
		optCPU := c.Step2CPU + c.Step3Opt
		optMix := c.Step2GPU + c.Step3Opt
		apxCPU := c.Step2CPU + c.Step3ApproxCPU
		apxGPU := c.Step2GPU + c.Step3ApproxGPU
		optCols := fmt.Sprintf("%12.4f %12.4f %8.2f", optCPU.Seconds(), optMix.Seconds(), speedup(optCPU, optMix))
		if c.OptSkipped {
			optCols = fmt.Sprintf("%12s %12s %8s", "skipped", "skipped", "-")
		}
		fmt.Fprintf(w, "%-12s %-8s | %s | %12.4f %12.4f %8.2f\n",
			fmt.Sprintf("%dx%d", c.N, c.N), fmt.Sprintf("%dx%d", c.Tiles, c.Tiles),
			optCols, apxCPU.Seconds(), apxGPU.Seconds(), speedup(apxCPU, apxGPU))
	}
}

// RunAllTables executes the sweep once and prints Tables II–IV from it,
// plus Table I from its own (error-focused) runs. It returns the sweep
// cells for further inspection.
func (cfg *Config) RunAllTables() ([]*Cell, error) {
	if _, err := cfg.Table1(); err != nil {
		return nil, err
	}
	fmt.Fprintln(cfg.out())
	cells, err := cfg.Sweep()
	if err != nil {
		return nil, err
	}
	cfg.Table2(cells)
	fmt.Fprintln(cfg.out())
	cfg.Table3(cells)
	fmt.Fprintln(cfg.out())
	cfg.Table4(cells)
	return cells, nil
}
