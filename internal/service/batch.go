package service

import (
	"errors"

	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// lease is one job's (or one Finish wave's) hold on an execution venue:
// either an exclusively-acquired pool device or, when the whole pool is
// quarantined and CPU fallback is allowed, the host.
type lease struct {
	dev  *cuda.Device // nil for the host lease
	name string       // pool label ("0", "1", ...) or "host"
}

// host reports whether the lease is the CPU-fallback venue.
func (l *lease) host() bool { return l.dev == nil }

// acquireLease leases a device for the job (recording the wait on the job's
// tree) or degrades to a host lease when the pool is fully quarantined and
// fallback is enabled. Any other acquire failure — context deadline while
// waiting, fallback disabled — is the job's error.
func (s *Service) acquireLease(job *Job) (*lease, error) {
	devSpan := job.tree.StartSpan(trace.SpanDeviceWait)
	dev, err := s.devices.Acquire(job.ctx)
	devSpan.End()
	switch {
	case err == nil:
		l := &lease{dev: dev, name: s.devices.Name(dev)}
		job.device = l.name
		return l, nil
	case errors.Is(err, ErrAllQuarantined) && !s.cfg.NoCPUFallback:
		job.device = "host"
		return &lease{name: "host"}, nil
	default:
		return nil, err
	}
}

// reportDevice records one job's health outcome against the leased device.
// Health is reported before Release (the pool's documented ordering), and per
// job even inside a wave: each settled job is one outcome, so a faulting
// device accumulates streak at the same rate batched or not.
func (s *Service) reportDevice(job *Job, l *lease) {
	if l.host() {
		return
	}
	st := job.tree.Snapshot()
	job.quarantined = s.devices.Report(l.dev,
		st.Counter(trace.CounterLaunchFaults),
		st.Counter(trace.CounterDegradedRuns) > 0)
}

// releaseLease returns the device to the pool; host leases hold nothing.
func (s *Service) releaseLease(l *lease) {
	if !l.host() {
		s.devices.Release(l.dev)
	}
}

// claimBatch claims every still-pending job with the given content hash. The
// index entry is removed atomically under mu, then each job is claimed by the
// settlement CAS — a job a worker or Close won in the meantime is simply not
// part of the wave.
func (s *Service) claimBatch(key string) []*Job {
	s.mu.Lock()
	list := s.pending[key]
	delete(s.pending, key)
	s.mu.Unlock()
	claimed := list[:0]
	for _, j := range list {
		if j.claimed.CompareAndSwap(false, true) {
			claimed = append(claimed, j)
		}
	}
	return claimed
}

// finishWave runs the micro-batch. The followers were claimed right after
// the leader's Finish, before its lease could be released, and the leader
// has since been encoded and settled. Each follower is settled on that
// still-held lease; run releases it once the wave is done. Followers skip
// their own device wait and cache lookup entirely — the amortization this
// exists for — and each runs FinishContext on the shared immutable Prepared,
// so outputs are bit-identical to unbatched runs. The leader is settled
// before the wave starts, so batching never inflates the latency of the job
// that paid for the prepare.
func (s *Service) finishWave(prep *core.Prepared, l *lease, followers []*Job) {
	s.batchWaves.Inc()
	size := len(followers) + 1 // leader included
	s.batchSize.Observe(float64(size))
	for _, job := range followers {
		s.runBatched(job, prep, l, size)
	}
}

// runBatched settles one follower inside a wave: same observability contract
// as a worker-run job (queue-wait close, running state, cache annotation,
// trace settlement), but on the leader's lease and against the leader's
// Prepared. Its encode also runs on the held lease: the wave keeps the
// device until its last follower settles. A follower whose deadline already
// expired fails fast inside FinishContext with its context error — claimed
// jobs always settle.
func (s *Service) runBatched(job *Job, prep *core.Prepared, l *lease, size int) {
	s.beginJob(job)
	s.inFlight.Inc()
	defer s.inFlight.Dec()
	job.device = l.name
	job.batched = true
	job.batchWave = size

	tr := trace.Multi(job.tree, telemetry.NewTraceCollector(s.reg))
	if l.host() {
		trace.Count(tr, trace.CounterDegradedRuns, 1)
	}
	// The shared Prepared is this job's cache outcome: a hit it never had to
	// look up.
	job.cacheLabel = cacheLabel(true)
	trace.Annotate(job.reqSpan, trace.AttrCache, job.cacheLabel)
	s.cacheHits.Inc()

	opts := s.jobOptions(job, l, tr)
	var res *JobResult
	fin, err := s.finish(job, prep, opts)
	if err == nil {
		res, err = s.encode(job, fin, true)
	}
	s.reportDevice(job, l)
	// Counted before settling: a caller woken by the settle must already
	// see the job in the counter.
	s.batchedJobs.Inc()
	s.settleJob(job, res, err)
}
