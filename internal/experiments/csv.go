package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteCellsCSV emits the sweep results as machine-readable CSV — one row
// per (image size, tile count) combination with every measured quantity, so
// downstream plotting does not have to parse the paper-layout tables.
// Durations are in seconds; a skipped optimization leaves its columns empty.
func WriteCellsCSV(cells []*Cell, w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{
		"image_size", "tiles_per_side", "s",
		"step2_cpu_s", "step2_gpu_s",
		"step3_opt_s", "step3_approx_cpu_s", "step3_approx_dirty_s", "step3_approx_gpu_s",
		"err_opt", "err_approx_cpu", "err_approx_dirty", "err_approx_gpu",
		"passes_serial", "passes_dirty", "passes_parallel",
		"attempts_serial", "attempts_dirty", "opt_skipped",
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("experiments: csv: %w", err)
	}
	sec := func(d interface{ Seconds() float64 }) string {
		return strconv.FormatFloat(d.Seconds(), 'g', 6, 64)
	}
	for _, c := range cells {
		optTime, optErr := sec(c.Step3Opt), strconv.FormatInt(c.ErrOpt, 10)
		if c.OptSkipped {
			optTime, optErr = "", ""
		}
		row := []string{
			strconv.Itoa(c.N), strconv.Itoa(c.Tiles), strconv.Itoa(c.S()),
			sec(c.Step2CPU), sec(c.Step2GPU),
			optTime, sec(c.Step3ApproxCPU), sec(c.Step3ApproxDirty), sec(c.Step3ApproxGPU),
			optErr, strconv.FormatInt(c.ErrApproxCPU, 10),
			strconv.FormatInt(c.ErrApproxDirty, 10), strconv.FormatInt(c.ErrApproxGPU, 10),
			strconv.Itoa(c.PassesSerial), strconv.Itoa(c.PassesDirty), strconv.Itoa(c.PassesParallel),
			strconv.FormatInt(c.AttemptsSerial, 10), strconv.FormatInt(c.AttemptsDirty, 10),
			strconv.FormatBool(c.OptSkipped),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("experiments: csv: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("experiments: csv: %w", err)
	}
	return nil
}
