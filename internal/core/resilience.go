package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cuda"
	"repro/internal/metric"
	"repro/internal/retry"
	"repro/internal/tilestore"
	"repro/internal/trace"
)

// isDeviceFault reports whether err is one of the typed launch failures the
// fault model can produce — the errors worth counting as cuda.launch-faults
// and worth degrading over (as opposed to validation errors).
func isDeviceFault(err error) bool {
	return errors.Is(err, cuda.ErrLaunchFailed) ||
		errors.Is(err, cuda.ErrDeviceLost) ||
		errors.Is(err, cuda.ErrDeviceHung)
}

// buildCostsResilient is the fault-tolerant Step-2 build: the device kernel
// runs through the error-returning launch path under
// opts.Resilience.Retry; exhausted retries (or an immediate device loss)
// degrade to metric.BuildStoreBlocked, which is certified bit-identical to
// the device kernel, under a trace.SpanDegraded span. Without a device the
// host build runs untouched — there is nothing to retry.
func buildCostsResilient(ctx context.Context, opts Options, in, tgt *tilestore.Store, tr trace.Collector) (*metric.Matrix, error) {
	if opts.Device == nil {
		return metric.BuildStoreBlocked(in, tgt, opts.Metric)
	}
	pol := opts.Resilience.Retry
	if pol.OnBackoff == nil {
		pol.OnBackoff = func(sleep func() error) error {
			defer trace.Start(tr, trace.SpanRetryBackoff).End()
			return sleep()
		}
	}
	var costs *metric.Matrix
	lerr := pol.Do(ctx, func(attempt int) error {
		if attempt > 1 {
			trace.Count(tr, trace.CounterLaunchRetries, 1)
		}
		var err error
		costs, err = metric.BuildStoreDeviceContext(ctx, opts.Device, in, tgt, opts.Metric)
		if err != nil && isDeviceFault(err) {
			trace.Count(tr, trace.CounterLaunchFaults, 1)
			if errors.Is(err, cuda.ErrDeviceLost) {
				// A lost device cannot come back within this run; skip the
				// remaining attempts and degrade (or fail) now.
				return retry.Stop(err)
			}
		}
		return err
	})
	if lerr == nil {
		return costs, nil
	}
	if errors.Is(lerr, context.Canceled) || errors.Is(lerr, context.DeadlineExceeded) {
		return nil, lerr
	}
	if !isDeviceFault(lerr) {
		// Validation-shaped error: retrying or degrading cannot change it.
		return nil, lerr
	}
	if opts.Resilience.DisableFallback {
		return nil, fmt.Errorf("core: Step-2 device build failed with host fallback disabled: %w", lerr)
	}
	trace.Count(tr, trace.CounterDegradedRuns, 1)
	sp := trace.Start(tr, trace.SpanDegraded)
	defer sp.End()
	return metric.BuildStoreBlocked(in, tgt, opts.Metric)
}
