// Package service is the request-serving layer above the photomosaic
// pipeline: a bounded job queue drained by a worker pool, a device pool that
// serialises kernel launches per virtual device (so the cuda launch-guard
// panic can never fire in server context), and a content-hash LRU cache of
// prepared Step-2 work so repeated requests against the same target skip the
// error matrix entirely. cmd/mosaicd mounts its HTTP API (http.go) next to
// the telemetry debug endpoints.
//
// Degradation under load is explicit: a full queue rejects with
// ErrQueueFull (HTTP 429 + Retry-After) instead of queuing unboundedly,
// per-job deadlines propagate as context cancellation through every
// pipeline stage, and Drain completes in-flight jobs while /readyz reports
// not-ready so load balancers stop routing.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"image/png"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/imgutil"
	"repro/internal/metric"
	"repro/internal/retry"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Rejection errors returned by Submit; the HTTP layer maps them to 429 and
// 503 respectively.
var (
	ErrQueueFull = errors.New("service: job queue full")
	ErrDraining  = errors.New("service: draining, not accepting jobs")
)

// ErrDeadlineUnmeetable is returned by Submit when predictive admission
// control estimates the job cannot finish inside its deadline (or the
// deadline has already expired) and the request did not opt into anytime
// mode. The HTTP layer maps it to 429 with a Retry-After computed from the
// estimate — rejecting at submit costs the client one round trip instead of
// a full deadline spent waiting for a guaranteed 504.
var ErrDeadlineUnmeetable = errors.New("service: estimated completion exceeds the request deadline")

// Config sizes the service. The zero value of any field selects the
// documented default.
type Config struct {
	// Registry receives the service metrics; nil creates a private one.
	Registry *telemetry.Registry
	// Workers is the number of concurrent jobs (default 4).
	Workers int
	// QueueDepth bounds the jobs waiting for a worker (default 16); a full
	// queue rejects with ErrQueueFull.
	QueueDepth int
	// Devices and DeviceWorkers size the device pool (defaults 1 pool
	// device, all-core workers). Workers > Devices is the interesting
	// regime: jobs contend for devices and serialise through the pool.
	Devices       int
	DeviceWorkers int
	// CacheBytes bounds the prepared-work cache (default 256 MiB;
	// negative disables caching).
	CacheBytes int64
	// DefaultTimeout is the per-job deadline when a request names none
	// (default 60s); MaxTimeout caps client-requested deadlines (default
	// 5m). The deadline starts at Submit, so time queued counts against it.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// JobsRetain bounds how many finished jobs stay pollable via
	// GET /v1/jobs/{id} (default 256); the oldest finished jobs are dropped
	// first.
	JobsRetain int
	// MaxImageSide caps the working image side accepted over HTTP
	// (default 1024).
	MaxImageSide int
	// RetryAfter is the hint returned with 429 responses (default 1s).
	RetryAfter time.Duration
	// Retry is the per-kernel-launch retry schedule jobs execute under
	// (zero value = retry defaults: 3 attempts, exponential backoff with
	// jitter).
	Retry retry.Policy
	// NoCPUFallback disables host degradation: jobs whose device retries
	// are exhausted fail instead of falling back, and /readyz reports
	// not-ready while every device is quarantined.
	NoCPUFallback bool
	// NoBatching disables Finish micro-batching. By default, when a worker
	// finishes a job it claims every still-queued job sharing the same
	// content hash and settles them in one wave on the same device lease —
	// each follower skips its own queue wait for a device, cache lookup and
	// acquire/launch overhead. Waves are coalescing only: outputs are
	// bit-identical to unbatched execution (FinishContext is deterministic
	// per request on a shared immutable Prepared).
	NoBatching bool
	// DefaultSolver is the Step-3 exact matcher used when a request names
	// none (empty = JV). Per-request Solver overrides it.
	DefaultSolver assign.Algorithm
	// FailureThreshold and ProbeInterval tune the device pool's circuit
	// breaker and health probe (see PoolConfig).
	FailureThreshold int
	ProbeInterval    time.Duration
	// DeviceFaults optionally installs a fault injector on pool device i —
	// the -chaos drill hook. nil injectors leave devices healthy.
	DeviceFaults func(i int) cuda.FaultInjector
	// AccessLog, when set, receives one JSON line per settled request —
	// finished jobs and queue rejections alike. Writes are serialised by the
	// service; nil disables access logging.
	AccessLog io.Writer
	// RecorderSlow and RecorderErrors size the flight recorder: how many
	// slowest requests (default 32) and how many errored/degraded requests
	// (default 64) retain their full span trees for /debug/requests.
	RecorderSlow   int
	RecorderErrors int
	// Anytime makes graceful degradation the default deadline policy
	// (mosaicd's -anytime): a job that misses its deadline returns the best
	// mosaic found so far marked partial, instead of failing with a
	// deadline error, and admission control degrades instead of rejecting.
	// Requests override the policy per job via Request.Anytime.
	Anytime bool
	// NoAdmission disables predictive admission control: jobs are admitted
	// regardless of the latency estimate (queue-full backpressure still
	// applies).
	NoAdmission bool
	// AdmissionMinSamples is how many settled jobs must train the latency
	// estimator before admission control starts rejecting (default 8).
	AdmissionMinSamples int

	// testJobStart, when set, runs at the top of every job execution —
	// the test seam for holding workers busy deterministically.
	testJobStart func(*Job)
	// testBeforeEncode, when set, runs just before a finished job's PNG
	// encode — the test seam for holding a job between its Finish and its
	// response.
	testBeforeEncode func(*Job)
}

func (c *Config) applyDefaults() {
	if c.Registry == nil {
		c.Registry = telemetry.NewRegistry()
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.Devices <= 0 {
		c.Devices = 1
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.JobsRetain <= 0 {
		c.JobsRetain = 256
	}
	if c.MaxImageSide <= 0 {
		c.MaxImageSide = 1024
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
}

// Request is one decoded mosaic job: square, equal-sized grayscale images
// plus the pipeline parameters the service exposes.
type Request struct {
	Input, Target *imgutil.Gray
	Tiles         int
	Algorithm     core.Algorithm
	Metric        metric.Metric
	NoHistMatch   bool
	// Solver picks the exact matcher for the optimization algorithm
	// (empty = the service's DefaultSolver, which itself defaults to JV).
	// The certified approximate solvers (auction-device, sinkhorn) trade
	// ≤1% assignment cost for materially lower matching latency.
	Solver assign.Algorithm
	// Timeout is the per-job deadline; 0 selects the configured default,
	// values above MaxTimeout are clamped to it.
	Timeout time.Duration
	// RequestID is the caller-supplied correlation ID (the X-Request-ID
	// header). Submit sanitizes it and mints a fresh one when empty or
	// invalid, writing the effective ID back to this field.
	RequestID string
	// Route labels the submission path in the access log ("/v1/mosaic";
	// direct API callers may leave it empty).
	Route string
	// Anytime selects the deadline policy: nil inherits the service default
	// (Config.Anytime), true makes deadline misses return the best-so-far
	// mosaic marked partial (HTTP 200 + X-Mosaic-Partial) and exempts the
	// job from admission rejection, false keeps the strict timeout
	// behaviour (504, and predictive 429s at submit).
	Anytime *bool
	// Deadline, when non-zero, is the absolute client deadline — the
	// router's X-Request-Deadline propagation. It caps Timeout: the client
	// stops waiting at Deadline no matter what the body asked for.
	Deadline time.Time
}

// ContentKey returns the request's content hash (core.ContentHash) — the
// prepared-work cache key, the peek address and the cluster router's
// consistent-hash routing key.
func (r *Request) ContentKey() string {
	return cacheKey(r.Input, r.Target, r.Tiles, r.Metric, r.NoHistMatch)
}

// JobState is the lifecycle of a job.
type JobState string

const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// JobResult is the outcome of a finished job.
type JobResult struct {
	PNG        []byte
	TotalError int64
	CacheHit   bool
	Stats      trace.Stats
	Elapsed    time.Duration
	// Partial marks an anytime job that ran out of deadline budget before
	// the search converged: the mosaic is valid and TotalError exact, but
	// more budget would have refined it further.
	Partial bool
	// CertifiedGap is the certified optimality gap of Step 3's matcher when
	// an early-exit certified solver ran (auction-device, sinkhorn); 0 for
	// the exact solvers and the local searches.
	CertifiedGap float64
}

// Job is one queued/running/finished mosaic generation. Fields behind mu
// are written by the worker and read by status handlers.
type Job struct {
	ID string
	// RequestID is the job's correlation ID — caller-supplied or minted at
	// Submit — echoed in responses and threaded by context through the
	// pipeline.
	RequestID string
	Route     string
	Created   time.Time

	req    *Request
	ctx    context.Context
	cancel context.CancelFunc

	// The request's span tree. reqSpan (the SpanRequest root) opens at
	// Submit and closes when the job settles; queueSpan covers Submit until
	// a worker picks the job up. The worker goroutine closes both — safe,
	// because the queue handoff orders Submit's span opens before them.
	tree      *trace.Tree
	reqSpan   trace.Span
	queueSpan trace.Span

	// contentHash is the request's core.ContentHash, computed at Submit —
	// the cache key, the batching coalescing key and the router's routing
	// key are all this value.
	contentHash string

	// claimed is the settlement ownership CAS: exactly one of a worker, a
	// batch leader's wave, or Close wins it, and only the winner may run or
	// fail the job. It is what makes a job impossible to double-settle (or
	// hang) when batching, draining and submission race.
	claimed atomic.Bool

	// anytime, budget and deadline carry the job's resolved deadline
	// policy: budget is the time granted at Submit, deadline the absolute
	// soft target the pipeline splits into stage budgets. In anytime mode
	// job.ctx carries only a far hard cap — the soft deadline governs
	// quality, genuine cancellation (client gone, shutdown) still aborts.
	anytime  bool
	budget   time.Duration
	deadline time.Time

	// Execution annotations for the access log and flight recorder, written
	// and read only on the goroutine that claimed the job.
	device      string
	cacheLabel  string // "hit" | "miss" | "" (failed before the lookup)
	solver      string // effective Step-3 matcher, for the assign histogram
	quarantined bool
	partial     bool // settled with a deadline-budgeted partial result
	batched     bool // settled as a follower in a batch wave
	batchWave   int  // wave width (leader included), 0 when unbatched

	mu     sync.Mutex
	state  JobState
	result *JobResult
	err    error
	done   chan struct{}
}

// Done returns a channel closed when the job finishes (done or failed).
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel aborts the job: dequeued-but-unstarted jobs fail immediately,
// running jobs observe the cancellation at the next pipeline checkpoint.
func (j *Job) Cancel() { j.cancel() }

// Snapshot returns the job's current state, result and error.
func (j *Job) Snapshot() (JobState, *JobResult, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.result, j.err
}

func (j *Job) setRunning() {
	j.mu.Lock()
	j.state = JobRunning
	j.mu.Unlock()
}

func (j *Job) finish(res *JobResult, err error) {
	j.mu.Lock()
	if err != nil {
		j.state = JobFailed
		j.err = err
	} else {
		j.state = JobDone
		j.result = res
	}
	j.mu.Unlock()
	j.cancel() // release the deadline timer
	close(j.done)
}

// Service is the running serving layer. Construct with New; stop with
// Drain (graceful) and/or Close (immediate).
type Service struct {
	cfg     Config
	reg     *telemetry.Registry
	devices *DevicePool
	cache   *prepCache

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	queue    chan *Job
	draining bool
	jobs     map[string]*Job
	order    []string // job IDs in creation order, for retention
	// pending indexes queued-and-unclaimed jobs by content hash — the batch
	// leader's shopping list. A job leaves pending when claimed (by its
	// worker, a wave, or Close).
	pending map[string][]*Job
	seq     atomic.Int64
	wg      sync.WaitGroup
	ready   atomic.Bool

	recorder  *flightRecorder
	estimator *phaseEstimator
	logMu     sync.Mutex

	inFlight    *telemetry.Gauge
	batchWaves  *telemetry.Counter
	batchedJobs *telemetry.Counter
	batchSize   *telemetry.Histogram
	jobsTotal   func(outcome string) *telemetry.Counter
	latency     *telemetry.Histogram
	queueWait   *telemetry.Histogram
	queueWaitNS *telemetry.Histogram
	phaseNS     func(phase string) *telemetry.Histogram
	assignNS    func(solver string) *telemetry.Histogram
	rejected    func(reason string) *telemetry.Counter
	cacheHits   *telemetry.Counter
	cacheMisses *telemetry.Counter

	partialResponses  *telemetry.Counter
	admissionRejected func(reason string) *telemetry.Counter
	budgetRemaining   func(stage string) *telemetry.Gauge
}

// New starts a service: the device pool, the worker pool and the metrics
// are live when it returns, and readiness reports true.
func New(cfg Config) *Service {
	cfg.applyDefaults()
	s := &Service{
		cfg: cfg,
		reg: cfg.Registry,
		devices: NewDevicePoolConfig(PoolConfig{
			Devices:          cfg.Devices,
			WorkersPer:       cfg.DeviceWorkers,
			Faults:           cfg.DeviceFaults,
			FailureThreshold: cfg.FailureThreshold,
			ProbeInterval:    cfg.ProbeInterval,
			Registry:         cfg.Registry,
		}),
		cache:     newPrepCache(cfg.CacheBytes),
		queue:     make(chan *Job, cfg.QueueDepth),
		jobs:      make(map[string]*Job),
		pending:   make(map[string][]*Job),
		recorder:  newFlightRecorder(cfg.RecorderSlow, cfg.RecorderErrors),
		estimator: newPhaseEstimator(cfg.AdmissionMinSamples),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.registerMetrics()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.ready.Store(true)
	return s
}

func (s *Service) registerMetrics() {
	reg := s.reg
	reg.GaugeFunc("mosaic_service_queue_depth", "Jobs waiting for a worker.", nil,
		func() float64 { return float64(len(s.queue)) })
	reg.GaugeFunc("mosaic_service_queue_capacity", "Bound of the job queue.", nil,
		func() float64 { return float64(cap(s.queue)) })
	reg.GaugeFunc("mosaic_service_devices", "Devices in the pool.", nil,
		func() float64 { return float64(s.devices.Size()) })
	reg.GaugeFunc("mosaic_service_devices_idle", "Pool devices not leased to a job.", nil,
		func() float64 { return float64(s.devices.Idle()) })
	reg.GaugeFunc("mosaic_service_devices_quarantined", "Pool devices currently quarantined.", nil,
		func() float64 { return float64(s.devices.Quarantined()) })
	reg.GaugeFunc("mosaic_service_ready", "1 while accepting jobs, 0 during drain.", nil,
		func() float64 {
			if s.ready.Load() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("mosaic_service_cache_entries", "Prepared inputs resident in the cache.", nil,
		func() float64 { e, _, _ := s.cache.stats(); return float64(e) })
	reg.GaugeFunc("mosaic_service_cache_bytes", "Bytes resident in the prepared-work cache.", nil,
		func() float64 { _, b, _ := s.cache.stats(); return float64(b) })
	reg.CounterFunc("mosaic_service_cache_evictions_total", "Prepared inputs evicted by the byte budget.", nil,
		func() float64 { _, _, ev := s.cache.stats(); return float64(ev) })
	s.inFlight = reg.Gauge("mosaic_service_jobs_in_flight", "Jobs currently executing.", nil)
	s.batchWaves = reg.Counter("mosaic_service_batch_waves_total",
		"Finish waves that coalesced two or more same-content jobs onto one device lease.", nil)
	s.batchedJobs = reg.Counter("mosaic_service_batched_jobs_total",
		"Follower jobs settled inside a batch leader's Finish wave (device acquire and cache lookup skipped).", nil)
	s.batchSize = reg.Histogram("mosaic_service_batch_size",
		"Jobs per coalesced Finish wave, leader included.", nil, telemetry.SizeBuckets)
	s.latency = reg.Histogram("mosaic_service_job_latency_seconds",
		"Job wall time from submit to finish, in seconds.", nil, nil)
	s.queueWait = reg.Histogram("mosaic_service_queue_wait_seconds",
		"Time jobs spent queued before a worker picked them up, in seconds.", nil, nil)
	s.queueWaitNS = reg.Histogram("mosaic_service_queue_wait_ns",
		"Time jobs spent queued before a worker picked them up, in nanoseconds (with request-ID exemplars).",
		nil, telemetry.NanoBuckets)
	s.phaseNS = func(phase string) *telemetry.Histogram {
		return reg.Histogram("mosaic_request_phase_ns",
			"Request wall time attributed exclusively to each phase, in nanoseconds (with request-ID exemplars).",
			telemetry.Labels{"phase": phase}, telemetry.NanoBuckets)
	}
	s.assignNS = func(solver string) *telemetry.Histogram {
		return reg.Histogram("mosaic_assign_ns",
			"Step-3 exact-matching wall time by solver, in nanoseconds (with request-ID exemplars).",
			telemetry.Labels{"solver": solver}, telemetry.NanoBuckets)
	}
	s.jobsTotal = func(outcome string) *telemetry.Counter {
		return reg.Counter("mosaic_service_jobs_total", "Finished jobs by outcome.",
			telemetry.Labels{"outcome": outcome})
	}
	s.rejected = func(reason string) *telemetry.Counter {
		return reg.Counter("mosaic_service_rejected_total", "Jobs rejected at submission.",
			telemetry.Labels{"reason": reason})
	}
	s.cacheHits = reg.Counter("mosaic_service_cache_hits_total",
		"Jobs that reused a cached prepared input and skipped Step 2.", nil)
	s.cacheMisses = reg.Counter("mosaic_service_cache_misses_total",
		"Jobs that built their prepared input (Step 2 executed).", nil)
	s.partialResponses = reg.Counter("mosaic_partial_responses_total",
		"Anytime jobs settled with a deadline-budgeted partial result.", nil)
	s.admissionRejected = func(reason string) *telemetry.Counter {
		return reg.Counter("mosaic_admission_rejections_total",
			"Submissions rejected by predictive admission control, by reason.",
			telemetry.Labels{"reason": reason})
	}
	s.budgetRemaining = func(stage string) *telemetry.Gauge {
		return reg.Gauge("mosaic_budget_remaining_ns",
			"Deadline budget remaining at stage entry for the most recent anytime job, in nanoseconds (negative once overdrawn).",
			telemetry.Labels{"stage": stage})
	}
	reg.GaugeFunc("mosaic_estimated_job_ns",
		"Admission control's EWMA whole-job latency estimate, in nanoseconds (0 until a job has settled).", nil,
		func() float64 {
			m, ok := s.estimator.jobMean()
			if !ok {
				return 0
			}
			return float64(m.Nanoseconds())
		})
}

// Ready implements the telemetry.WithReadiness check. Besides draining, the
// service reports not-ready when every device is quarantined *and* CPU
// fallback is disabled — with fallback enabled a device-less service still
// serves correct (degraded) responses, so it stays ready.
func (s *Service) Ready() (bool, string) {
	if !s.ready.Load() {
		return false, "draining"
	}
	if s.cfg.NoCPUFallback && s.devices.AllQuarantined() {
		return false, "all devices quarantined and CPU fallback disabled"
	}
	return true, ""
}

// Registry returns the metrics registry the service reports into.
func (s *Service) Registry() *telemetry.Registry { return s.reg }

// Submit validates and enqueues a job. It never blocks: a full queue
// returns ErrQueueFull (the backpressure signal) and a draining service
// ErrDraining. The job's deadline starts now, so time spent queued counts
// against it. Strict (non-anytime) jobs also pass predictive admission
// control: when the latency estimator predicts the job cannot finish
// inside its deadline, Submit rejects with ErrDeadlineUnmeetable instead
// of queueing work that is guaranteed to time out; anytime jobs are always
// admitted and degrade to a partial result instead.
func (s *Service) Submit(req *Request) (*Job, error) {
	if req != nil {
		// The effective ID is written back so even rejected submissions can
		// be correlated (the HTTP layer echoes it on the 429/503 response).
		req.RequestID = trace.SanitizeRequestID(req.RequestID)
		if req.RequestID == "" {
			req.RequestID = trace.NewRequestID()
		}
	}
	if err := validateRequest(req); err != nil {
		return nil, err
	}
	timeout := req.Timeout
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	anytime := s.cfg.Anytime
	if req.Anytime != nil {
		anytime = *req.Anytime
	}
	if !req.Deadline.IsZero() {
		// The propagated client deadline caps whatever the body asked for —
		// the client stops waiting at Deadline no matter what.
		if rem := time.Until(req.Deadline); rem < timeout {
			timeout = rem
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.rejected("draining").Inc()
		s.logRejection(req, "rejected_draining")
		return nil, ErrDraining
	}
	if !anytime {
		if timeout <= 0 {
			s.rejected("deadline").Inc()
			s.admissionRejected("expired").Inc()
			s.logRejection(req, "rejected_deadline")
			return nil, fmt.Errorf("%w: deadline already expired", ErrDeadlineUnmeetable)
		}
		if !s.cfg.NoAdmission {
			if est, ok := s.estimator.estimate(len(s.queue), s.cfg.Workers); ok && est > timeout {
				s.rejected("deadline").Inc()
				s.admissionRejected("unmeetable").Inc()
				s.logRejection(req, "rejected_deadline")
				return nil, fmt.Errorf("%w: estimated %v for a %v deadline",
					ErrDeadlineUnmeetable, est.Round(time.Millisecond), timeout.Round(time.Millisecond))
			}
		}
	}
	if timeout < 0 {
		timeout = 0 // expired anytime deadline: admit for the quality floor
	}
	job := &Job{
		ID:          fmt.Sprintf("j%06d", s.seq.Add(1)),
		RequestID:   req.RequestID,
		Route:       req.Route,
		Created:     time.Now(),
		req:         req,
		contentHash: req.ContentKey(),
		state:       JobQueued,
		done:        make(chan struct{}),
		tree:        trace.NewTree(),
		anytime:     anytime,
		budget:      timeout,
		deadline:    time.Now().Add(timeout),
	}
	if anytime {
		// The soft deadline (job.deadline) governs quality via the stage
		// budgets; the ctx carries only a far hard cap so a pathological
		// job still terminates. MaxTimeout bounds any admissible job's
		// unskippable stages (prepare + assembly + encode).
		job.ctx, job.cancel = context.WithTimeout(s.baseCtx, timeout+s.cfg.MaxTimeout)
	} else {
		job.ctx, job.cancel = context.WithTimeout(s.baseCtx, timeout)
	}
	job.ctx = trace.WithRequestID(job.ctx, job.RequestID)
	job.reqSpan = job.tree.StartSpan(trace.SpanRequest)
	trace.Annotate(job.reqSpan, trace.AttrRequestID, job.RequestID)
	job.queueSpan = job.tree.StartSpan(trace.SpanQueueWait)
	select {
	case s.queue <- job:
	default:
		s.rejected("queue-full").Inc()
		s.logRejection(req, "rejected_queue_full")
		job.cancel()
		return nil, ErrQueueFull
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	if !s.cfg.NoBatching {
		s.pending[job.contentHash] = append(s.pending[job.contentHash], job)
	}
	s.retainLocked()
	return job, nil
}

// retainLocked drops the oldest finished jobs beyond the retention bound so
// the job map cannot grow without limit under async traffic.
func (s *Service) retainLocked() {
	for len(s.jobs) > s.cfg.JobsRetain {
		dropped := false
		for i, id := range s.order {
			j, ok := s.jobs[id]
			if !ok {
				s.order = append(s.order[:i], s.order[i+1:]...)
				dropped = true
				break
			}
			st, _, _ := j.Snapshot()
			if st == JobDone || st == JobFailed {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				dropped = true
				break
			}
		}
		if !dropped {
			return // everything retained is still queued or running
		}
	}
}

// Job returns the job with the given ID, if still retained.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// RetryAfter returns the configured 429 Retry-After hint.
func (s *Service) RetryAfter() time.Duration { return s.cfg.RetryAfter }

// RetryAfterEstimate computes the Retry-After hint for 429 responses from
// live state — current queue depth × the latency estimator's mean job time,
// clamped to [1s, 30s] — so a client backing off under overload waits
// roughly one queue-drain instead of a fixed constant. Before the first job
// has settled it falls back to the configured constant.
func (s *Service) RetryAfterEstimate() time.Duration {
	mean, ok := s.estimator.jobMean()
	if !ok {
		return s.cfg.RetryAfter
	}
	ra := time.Duration(len(s.queue)) * mean
	if ra < time.Second {
		ra = time.Second
	}
	if ra > 30*time.Second {
		ra = 30 * time.Second
	}
	return ra
}

func validateRequest(req *Request) error {
	if req == nil || req.Input == nil || req.Target == nil {
		return fmt.Errorf("%w: missing images", core.ErrOptions)
	}
	if req.Tiles < 2 {
		return fmt.Errorf("%w: tiles %d (need at least 2 per side)", core.ErrOptions, req.Tiles)
	}
	if req.Solver != "" {
		if _, ok := assign.Solvers()[req.Solver]; !ok {
			return fmt.Errorf("%w: unknown solver %q", core.ErrOptions, req.Solver)
		}
	}
	return nil
}

func (s *Service) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		// The claim CAS is the settlement handoff: a job a batch wave (or
		// Close) already owns stays in the channel but must not run twice.
		if !job.claimed.CompareAndSwap(false, true) {
			continue
		}
		s.unpend(job)
		s.run(job)
	}
}

// unpend removes a claimed job from the batching index.
func (s *Service) unpend(job *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	list := s.pending[job.contentHash]
	for i, j := range list {
		if j == job {
			s.pending[job.contentHash] = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(s.pending[job.contentHash]) == 0 {
		delete(s.pending, job.contentHash)
	}
}

// run executes one claimed job: lease a device, reuse or build the prepared
// input and finish the pipeline on it — the device-lease critical section —
// then encode the result and settle the request's observability artifacts
// (span tree, phase histograms, access log, flight recorder) before waking
// any waiter, so a synchronous client's immediate /debug/requests follow-up
// finds its own entry.
//
// Right after the Finish (and the health report, which precedes Release as
// the pool documents) the worker claims every queued job sharing the same
// prepared work. An empty claim releases the lease at once, so the CPU-only
// encode and settlement overlap the next job's device work. A non-empty
// claim is a Finish wave: the leader is still encoded and settled first,
// then the followers run on the held lease, then it is released — the
// micro-batching that amortizes acquire/launch overhead across same-content
// bursts.
func (s *Service) run(job *Job) {
	s.beginJob(job)
	s.inFlight.Inc()
	defer s.inFlight.Dec()
	if s.cfg.testJobStart != nil {
		s.cfg.testJobStart(job)
	}

	l, err := s.acquireLease(job)
	if err != nil {
		s.settleJob(job, nil, err)
		return
	}
	fin, prep, hit, err := s.execute(job, l)
	s.reportDevice(job, l)
	var followers []*Job
	if prep != nil && !s.cfg.NoBatching {
		followers = s.claimBatch(job.contentHash)
	}
	if len(followers) == 0 {
		s.releaseLease(l)
	}
	var res *JobResult
	if err == nil {
		res, err = s.encode(job, fin, hit)
	}
	s.settleJob(job, res, err)
	if len(followers) > 0 {
		s.finishWave(prep, l, followers)
		s.releaseLease(l)
	}
}

// beginJob closes the queue-wait span and flips the job to running — the
// common entry for worker-run jobs and wave followers alike.
func (s *Service) beginJob(job *Job) {
	job.queueSpan.End()
	queueWait := time.Since(job.Created)
	s.queueWait.Observe(queueWait.Seconds())
	s.queueWaitNS.ObserveExemplar(float64(queueWait.Nanoseconds()),
		telemetry.Labels{"request_id": job.RequestID})
	job.setRunning()
}

// settleJob classifies the outcome, settles observability and wakes waiters.
// A deadline miss, a client cancellation and a genuine execution error are
// different operational signals and get separate outcome counters (the HTTP
// layer mirrors the split as 504 / 499 / 5xx).
func (s *Service) settleJob(job *Job, res *JobResult, err error) {
	elapsed := time.Since(job.Created)
	s.latency.Observe(elapsed.Seconds())
	outcome := "done"
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			outcome = "timeout"
		case errors.Is(err, context.Canceled):
			outcome = "cancelled"
		default:
			outcome = "error"
		}
	}
	if err == nil && res != nil && res.Partial {
		s.partialResponses.Inc()
	}
	s.jobsTotal(outcome).Inc()
	s.settleTrace(job, outcome, err)
	if err != nil {
		job.finish(nil, err)
		return
	}
	res.Elapsed = elapsed
	res.Stats = job.tree.Snapshot()
	job.finish(res, nil)
}

// settleTrace closes the request root span, attributes the request's wall
// time to phases, feeds the phase histograms (with request-ID exemplars),
// writes the access-log line and hands the span tree to the flight recorder.
func (s *Service) settleTrace(job *Job, outcome string, jobErr error) {
	st := job.tree.Snapshot()
	retries := st.Counter(trace.CounterLaunchRetries)
	degraded := st.Counter(trace.CounterDegradedRuns) > 0
	trace.Annotate(job.reqSpan, trace.AttrOutcome, outcome)
	if job.device != "" {
		trace.Annotate(job.reqSpan, trace.AttrDevice, job.device)
	}
	if degraded {
		trace.Annotate(job.reqSpan, trace.AttrDegraded, "true")
	}
	if job.quarantined {
		trace.Annotate(job.reqSpan, trace.AttrQuarantine, "true")
	}
	if retries > 0 {
		trace.Annotate(job.reqSpan, trace.AttrRetries, fmt.Sprintf("%d", retries))
	}
	if job.batched {
		trace.Annotate(job.reqSpan, trace.AttrBatched, "true")
	}
	if job.batchWave > 1 {
		trace.Annotate(job.reqSpan, trace.AttrBatchSize, fmt.Sprintf("%d", job.batchWave))
	}
	if job.partial {
		trace.Annotate(job.reqSpan, trace.AttrPartial, "true")
	}
	job.reqSpan.End()

	roots := job.tree.Roots()
	phases := trace.Phases(roots)
	exLabels := telemetry.Labels{"request_id": job.RequestID}
	for phase, ns := range phases {
		s.phaseNS(phase).ObserveExemplar(float64(ns), exLabels)
	}
	// Per-solver matching latency: only requests that ran the optimization
	// algorithm open a SpanAssign, so the histogram stays solver-pure.
	if ns, ok := phases[trace.SpanAssign]; ok && job.solver != "" {
		s.assignNS(job.solver).ObserveExemplar(float64(ns), exLabels)
	}
	var total int64
	for _, r := range roots {
		total += int64(r.Duration)
	}
	if outcome == "done" && !job.partial {
		// Complete successes train the admission estimator; failures and
		// partials stopped early and would bias the mean toward optimism
		// exactly when the service is overloaded.
		s.estimator.observe(phases, total)
	}

	rec := &RecordedRequest{
		RequestID:   job.RequestID,
		JobID:       job.ID,
		Route:       job.Route,
		Outcome:     outcome,
		Start:       job.Created,
		DurationNS:  total,
		Device:      job.device,
		Cache:       job.cacheLabel,
		ContentHash: job.contentHash,
		Degraded:    degraded,
		Quarantined: job.quarantined,
		Retries:     retries,
		Batched:     job.batched,
		Partial:     job.partial,
		BudgetNS:    job.budget.Nanoseconds(),
		Phases:      phases,
		Spans:       roots,
	}
	if jobErr != nil {
		rec.Error = jobErr.Error()
	}
	s.recorder.record(rec)
	s.logAccess(accessLine{
		TimeRFC3339: time.Now().UTC().Format(time.RFC3339Nano),
		RequestID:   job.RequestID,
		JobID:       job.ID,
		Route:       job.Route,
		Outcome:     outcome,
		Error:       rec.Error,
		DurationNS:  total,
		PhasesNS:    phases,
		Device:      job.device,
		Cache:       rec.Cache,
		ContentHash: job.contentHash,
		Degraded:    degraded,
		Quarantined: job.quarantined,
		Retries:     retries,
		Batched:     job.batched,
		Partial:     job.partial,
		BudgetNS:    job.budget.Nanoseconds(),
	})
}

// execute runs the device part of one job's pipeline under an
// already-acquired lease: reuse or build the prepared input, then finish.
// It reports whether the Prepared came from the cache. The Prepared is
// returned (even when the Finish itself failed) so run can coalesce queued
// same-content jobs into a wave on the same lease; encoding is left to the
// caller, which may already have released the lease.
func (s *Service) execute(job *Job, l *lease) (*core.Result, *core.Prepared, bool, error) {
	ctx := job.ctx
	req := job.req

	// The job's request-scoped tree (opened at Submit) receives every span;
	// the shared registry, which aggregates stage histograms across jobs,
	// sees only the pipeline's events — service-journey spans (device-wait,
	// cache-lookup, encode) go on the tree alone so the exported stage
	// vocabulary stays stable.
	tree := job.tree
	tr := trace.Multi(tree, telemetry.NewTraceCollector(s.reg))
	if l.host() {
		// Every device is sick: run the whole job on the host. The CPU
		// builders and the host Algorithm-2 sweeps are certified
		// bit-identical, so only latency degrades, and the run is counted.
		trace.Count(tr, trace.CounterDegradedRuns, 1)
	}
	opts := s.jobOptions(job, l, tr)

	key := job.contentHash
	lookupSpan := tree.StartSpan(trace.SpanCacheLookup)
	prep, hit, err := s.cache.getOrPrepare(ctx, key, func() (*core.Prepared, error) {
		// The leader builds on this goroutine, so the prepare stage spans
		// nest inside the cache-lookup span and its exclusive time stays
		// pure lookup overhead.
		return core.PrepareContext(ctx, req.Input, req.Target, opts)
	})
	lookupSpan.End()
	if err != nil {
		return nil, nil, false, err
	}
	job.cacheLabel = cacheLabel(hit)
	trace.Annotate(job.reqSpan, trace.AttrCache, job.cacheLabel)
	if hit {
		s.cacheHits.Inc()
	} else {
		s.cacheMisses.Inc()
	}

	res, err := s.finish(job, prep, opts)
	return res, prep, hit, err
}

// jobOptions assembles the pipeline options for one job on one lease.
func (s *Service) jobOptions(job *Job, l *lease, tr trace.Collector) core.Options {
	req := job.req
	solver := req.Solver
	if solver == "" {
		solver = s.cfg.DefaultSolver
	}
	if solver == "" {
		solver = assign.AlgoJV
	}
	job.solver = string(solver)
	return core.Options{
		TilesPerSide:     req.Tiles,
		Algorithm:        req.Algorithm,
		Metric:           req.Metric,
		NoHistogramMatch: req.NoHistMatch,
		Solver:           solver,
		Device:           l.dev,
		Trace:            tr,
		Resilience:       &core.Resilience{Retry: s.cfg.Retry, DisableFallback: s.cfg.NoCPUFallback},
		Anytime:          job.anytime,
		Deadline:         job.deadline,
	}
}

// finish runs Step 3 + assembly on the shared Prepared — the last stage that
// needs the device lease.
func (s *Service) finish(job *Job, prep *core.Prepared, opts core.Options) (*core.Result, error) {
	res, err := prep.FinishContext(job.ctx, opts)
	if err != nil {
		return nil, err
	}
	for stage, ns := range res.BudgetRemaining {
		s.budgetRemaining(stage).Set(float64(ns))
	}
	job.partial = res.Partial
	return res, nil
}

// encode turns a finished mosaic into the job's response. It is host-only
// work, so run calls it after releasing the lease unless a Finish wave still
// holds it. The result reports the job-level tree, not res.Stats: the job
// tree saw this job's prepare spans too (when it was the cache-miss
// builder), so the span list is the observable hit/miss signature —
// error-matrix present only when Step 2 actually ran for this request.
// settleJob refreshes Stats once the request root closes.
func (s *Service) encode(job *Job, res *core.Result, hit bool) (*JobResult, error) {
	if s.cfg.testBeforeEncode != nil {
		s.cfg.testBeforeEncode(job)
	}
	encSpan := job.tree.StartSpan(trace.SpanEncode)
	data, err := encodePNG(res.Mosaic)
	encSpan.End()
	if err != nil {
		return nil, fmt.Errorf("service: encode: %w", err)
	}
	if job.anytime {
		s.budgetRemaining("encode").Set(float64(time.Until(job.deadline).Nanoseconds()))
	}
	jr := &JobResult{
		PNG:        data,
		TotalError: res.TotalError,
		CacheHit:   hit,
		Stats:      job.tree.Snapshot(),
		Partial:    res.Partial,
	}
	if res.AssignInfo != nil {
		jr.CertifiedGap = res.AssignInfo.Gap
	}
	return jr, nil
}

// pngEncoder encodes every response. BestSpeed trades ~20% larger files for
// a several-fold cheaper deflate than the default level; the pixels are
// identical either way. The buffer pool reuses the encoder's filter rows and
// zlib state across requests, which concurrent encodes may share safely.
var pngEncoder = png.Encoder{CompressionLevel: png.BestSpeed, BufferPool: &encoderPool{}}

// encoderPool is a png.EncoderBufferPool backed by a sync.Pool.
type encoderPool struct{ p sync.Pool }

func (e *encoderPool) Get() *png.EncoderBuffer {
	b, _ := e.p.Get().(*png.EncoderBuffer)
	return b
}

func (e *encoderPool) Put(b *png.EncoderBuffer) { e.p.Put(b) }

// encodePNG encodes one mosaic with the response encoder.
func encodePNG(m *imgutil.Gray) ([]byte, error) {
	var buf bytes.Buffer
	if err := pngEncoder.Encode(&buf, m.ToImage()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// accessLine is one structured access-log record; all durations nanoseconds.
type accessLine struct {
	TimeRFC3339 string           `json:"ts"`
	RequestID   string           `json:"request_id"`
	JobID       string           `json:"job_id,omitempty"`
	Route       string           `json:"route,omitempty"`
	Outcome     string           `json:"outcome"`
	Error       string           `json:"error,omitempty"`
	DurationNS  int64            `json:"duration_ns"`
	PhasesNS    map[string]int64 `json:"phases_ns,omitempty"`
	Device      string           `json:"device,omitempty"`
	Cache       string           `json:"cache,omitempty"`
	ContentHash string           `json:"content_hash,omitempty"`
	Degraded    bool             `json:"degraded,omitempty"`
	Quarantined bool             `json:"quarantined,omitempty"`
	Retries     int64            `json:"retries,omitempty"`
	Batched     bool             `json:"batched,omitempty"`
	Partial     bool             `json:"partial,omitempty"`
	BudgetNS    int64            `json:"budget_ns,omitempty"`
}

// logAccess writes one JSON line; writers are worker goroutines plus Submit
// rejections, so the write is serialised.
func (s *Service) logAccess(line accessLine) {
	if s.cfg.AccessLog == nil {
		return
	}
	b, err := json.Marshal(line)
	if err != nil {
		return
	}
	b = append(b, '\n')
	s.logMu.Lock()
	_, _ = s.cfg.AccessLog.Write(b)
	s.logMu.Unlock()
}

// logRejection access-logs a submission that never became a job — the
// backpressure events an operator most wants correlated with client retries.
func (s *Service) logRejection(req *Request, outcome string) {
	s.logAccess(accessLine{
		TimeRFC3339: time.Now().UTC().Format(time.RFC3339Nano),
		RequestID:   req.RequestID,
		Route:       req.Route,
		Outcome:     outcome,
	})
}

// Drain stops accepting jobs, flips readiness, and waits for queued and
// in-flight jobs to finish — the SIGTERM path. It returns ctx's error if
// the deadline expires first (in-flight jobs keep their own deadlines; a
// following Close cancels them hard). Drain is idempotent; concurrent calls
// all wait.
func (s *Service) Drain(ctx context.Context) error {
	s.ready.Store(false)
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue) // workers exit once the queue empties
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.devices.Close()
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain: %w", ctx.Err())
	}
}

// Close cancels every job context and waits for the workers. Safe after
// Drain; used alone it is the hard-stop path.
func (s *Service) Close() {
	s.ready.Store(false)
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.baseCancel()
	s.wg.Wait()
	s.devices.Close()
	// Jobs cancelled while still queued never reach a worker; fail them so
	// waiters do not block forever. The claim CAS keeps this race-free: only
	// the winner settles, so a job a worker or wave is settling concurrently
	// is skipped here, and a job claimed here can no longer be run by anyone.
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		st, _, _ := j.Snapshot()
		if st == JobQueued && j.claimed.CompareAndSwap(false, true) {
			j.finish(nil, context.Canceled)
		}
	}
	s.pending = make(map[string][]*Job)
}
