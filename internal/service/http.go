package service

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"image/png"
	"io"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/imgutil"
	"repro/internal/metric"
	"repro/internal/pnm"
	"repro/internal/synth"
	"repro/internal/trace"
)

// maxUploadBytes bounds one request body — JSON or multipart; two max-side
// PNGs fit with room to spare. Oversized bodies are rejected with 413, never
// silently truncated (truncation would decode a corrupt image or compute a
// wrong content hash).
const maxUploadBytes = 32 << 20

// MaxUploadBytes is the request-body bound, exported so the cluster router
// can enforce the same limit before buffering a submission for routing.
const MaxUploadBytes = maxUploadBytes

// ErrTooLarge reports a request body or uploaded file exceeding
// maxUploadBytes. The HTTP layer maps it to 413 Request Entity Too Large.
var ErrTooLarge = errors.New("service: request body exceeds the upload limit")

// RegisterRoutes mounts the job API on mux, next to whatever telemetry
// endpoints the mux already serves:
//
//	POST /v1/mosaic           submit a job (sync by default, mode=async for 202+poll)
//	GET  /v1/jobs/{id}        poll an async job
//	HEAD /v1/prepared/{hash}  cache peek: 200 if the prepared-work cache holds hash
func (s *Service) RegisterRoutes(mux *http.ServeMux) {
	mux.HandleFunc("/v1/mosaic", s.handleMosaic)
	mux.HandleFunc("/v1/jobs/", s.handleJob)
	mux.HandleFunc("/v1/prepared/", s.handlePrepared)
}

// jobRequestJSON is the wire form of a submission. Images are either
// built-in synthetic scene names (JSON body) or uploaded PNG/PGM files
// (multipart form, parts "input" and "target", same field names otherwise).
type jobRequestJSON struct {
	Input            string `json:"input"`
	Target           string `json:"target"`
	Size             int    `json:"size"`
	Tiles            int    `json:"tiles"`
	Algorithm        string `json:"algorithm"`
	Solver           string `json:"solver"`
	Metric           string `json:"metric"`
	NoHistogramMatch bool   `json:"no_histogram_match"`
	TimeoutMS        int64  `json:"timeout_ms"`
	Mode             string `json:"mode"`   // "sync" (default) | "async"
	Format           string `json:"format"` // "json" (default) | "png"
	// Anytime overrides the server's deadline policy for this job: true
	// degrades a missed deadline into a partial (but valid) mosaic, false
	// forces a strict 504. Absent means "use the server default".
	Anytime *bool `json:"anytime,omitempty"`
}

// jobResponseJSON is the wire form of a job's state/result.
type jobResponseJSON struct {
	JobID      string  `json:"job_id"`
	RequestID  string  `json:"request_id,omitempty"`
	Status     string  `json:"status"`
	Error      string  `json:"error,omitempty"`
	Cache      string  `json:"cache,omitempty"`
	TotalError int64   `json:"total_error,omitempty"`
	ElapsedMS  float64 `json:"elapsed_ms,omitempty"`
	Retries    int64   `json:"retries,omitempty"`
	Degraded   bool    `json:"degraded,omitempty"`
	Partial    bool    `json:"partial,omitempty"`
	// CertifiedGap is the assignment solver's certified optimality gap when
	// one was computed (auction/Sinkhorn paths); for a partial result it
	// bounds how far the early-stopped answer can be from optimal.
	CertifiedGap float64  `json:"certified_gap,omitempty"`
	Spans        []string `json:"spans,omitempty"`
	PNGBase64    string   `json:"png_base64,omitempty"`
	StatusURL    string   `json:"status_url,omitempty"`
}

func (s *Service) handleMosaic(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	req, wire, err := parseSubmission(r, s.cfg.MaxImageSide)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrTooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, err.Error())
		return
	}
	req.RequestID = r.Header.Get("X-Request-ID")
	req.Route = "/v1/mosaic"
	job, err := s.Submit(req)
	// Submit writes the effective (sanitized or minted) ID back to the
	// request, so even rejections echo an ID the client can correlate.
	w.Header().Set("X-Request-ID", req.RequestID)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	if wire.Mode == "async" {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		writeJSON(w, jobResponseJSON{
			JobID:     job.ID,
			RequestID: job.RequestID,
			Status:    string(JobQueued),
			StatusURL: "/v1/jobs/" + job.ID,
		})
		return
	}
	select {
	case <-job.Done():
	case <-r.Context().Done():
		// The client is gone; cancel so a still-queued job never occupies
		// a worker. The response is moot but the job must settle.
		job.Cancel()
		<-job.Done()
		httpError(w, 499, "client closed request")
		return
	}
	s.writeJob(w, job, wire.Format)
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if id == "" || strings.Contains(id, "/") {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	job, ok := s.Job(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no such job (finished jobs are retained only briefly)")
		return
	}
	s.writeJob(w, job, r.URL.Query().Get("format"))
}

// handlePrepared is the cross-node cache peek: HEAD (or GET)
// /v1/prepared/{hash} answers 200 when the prepared-work cache holds that
// content hash and 404 otherwise. It is deliberately cheap — one map lookup,
// no LRU bump (a peek is not a use) — so a cluster router can probe every
// node per request. GET additionally returns a small JSON document.
func (s *Service) handlePrepared(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodHead && r.Method != http.MethodGet {
		w.Header().Set("Allow", "HEAD, GET")
		httpError(w, http.StatusMethodNotAllowed, "HEAD or GET only")
		return
	}
	hash := strings.TrimPrefix(r.URL.Path, "/v1/prepared/")
	if hash == "" || strings.Contains(hash, "/") {
		w.WriteHeader(http.StatusNotFound)
		return
	}
	if !s.PreparedCached(hash) {
		w.WriteHeader(http.StatusNotFound)
		return
	}
	if r.Method == http.MethodHead {
		w.WriteHeader(http.StatusOK)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, struct {
		ContentHash string `json:"content_hash"`
		Cached      bool   `json:"cached"`
	}{hash, true})
}

// PreparedCached reports whether the prepared-work cache currently holds the
// given content hash, without touching LRU order.
func (s *Service) PreparedCached(hash string) bool { return s.cache.contains(hash) }

// writeJob renders a job in its current state; format "png" streams the
// image for finished jobs, everything else gets the JSON document.
func (s *Service) writeJob(w http.ResponseWriter, job *Job, format string) {
	w.Header().Set("X-Request-ID", job.RequestID)
	state, result, err := job.Snapshot()
	if err != nil {
		code, msg := errToStatus(err)
		httpError(w, code, msg)
		return
	}
	if state == JobDone && result.Partial {
		// Machine-readable even on the PNG path, and visible to intermediaries
		// that never parse the body: this 200 carries a valid but
		// deadline-truncated mosaic.
		w.Header().Set("X-Mosaic-Partial", "true")
	}
	if state == JobDone && format == "png" {
		w.Header().Set("Content-Type", "image/png")
		w.Header().Set("X-Mosaic-Cache", cacheLabel(result.CacheHit))
		w.Header().Set("X-Mosaic-Total-Error", strconv.FormatInt(result.TotalError, 10))
		_, _ = w.Write(result.PNG)
		return
	}
	resp := jobResponseJSON{JobID: job.ID, RequestID: job.RequestID, Status: string(state)}
	if state == JobDone {
		resp.Cache = cacheLabel(result.CacheHit)
		resp.TotalError = result.TotalError
		resp.ElapsedMS = float64(result.Elapsed.Microseconds()) / 1e3
		resp.Retries = result.Stats.Counter(trace.CounterLaunchRetries)
		resp.Degraded = result.Stats.Counter(trace.CounterDegradedRuns) > 0
		resp.Partial = result.Partial
		resp.CertifiedGap = result.CertifiedGap
		for _, sp := range result.Stats.Spans {
			resp.Spans = append(resp.Spans, sp.Name)
		}
		resp.PNGBase64 = base64.StdEncoding.EncodeToString(result.PNG)
	} else {
		resp.StatusURL = "/v1/jobs/" + job.ID
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, resp)
}

func cacheLabel(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// writeSubmitError maps Submit errors onto the backpressure status codes.
// Both 429s carry a Retry-After derived from the live latency estimator
// (queue depth × mean job time) rather than a fixed constant, so clients
// back off proportionally to actual load.
func (s *Service) writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDeadlineUnmeetable):
		ra := s.RetryAfterEstimate()
		w.Header().Set("Retry-After", strconv.Itoa(int((ra+time.Second-1)/time.Second)))
		httpError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrDraining):
		httpError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, core.ErrOptions):
		httpError(w, http.StatusBadRequest, err.Error())
	default:
		httpError(w, http.StatusInternalServerError, err.Error())
	}
}

// errToStatus maps job-execution errors onto response codes.
func errToStatus(err error) (int, string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "job deadline exceeded"
	case errors.Is(err, context.Canceled):
		// The job died because the submitter walked away, not because the
		// service failed — nginx's 499, distinct from the 504 deadline above.
		return 499, "client closed request"
	case errors.Is(err, ErrAllQuarantined):
		return http.StatusServiceUnavailable, err.Error()
	case errors.Is(err, core.ErrOptions):
		return http.StatusBadRequest, err.Error()
	default:
		return http.StatusInternalServerError, err.Error()
	}
}

// DecodeSubmission parses an HTTP submission exactly as POST /v1/mosaic
// does — same wire formats, limits and validation — without submitting
// anything. The cluster router uses it to compute the content-hash routing
// key for a buffered request before forwarding it to a backend; the returned
// Request's ContentKey is bit-identical to the cache key the backend will
// derive. Errors wrapping ErrTooLarge should map to 413, everything else
// to 400.
func DecodeSubmission(r *http.Request, maxImageSide int) (*Request, error) {
	if maxImageSide <= 0 {
		maxImageSide = 1024
	}
	req, _, err := parseSubmission(r, maxImageSide)
	return req, err
}

// parseSubmission decodes either wire format into a validated Request.
func parseSubmission(r *http.Request, maxImageSide int) (*Request, *jobRequestJSON, error) {
	wire := &jobRequestJSON{}
	var inputFile, targetFile []byte
	ctype, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	switch {
	case ctype == "multipart/form-data":
		// Bound the whole multipart body so an oversized upload fails loudly
		// instead of spooling without limit; the per-file check in formFile
		// is defense in depth on top of this.
		r.Body = http.MaxBytesReader(nil, r.Body, maxUploadBytes)
		if err := r.ParseMultipartForm(maxUploadBytes); err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				return nil, nil, fmt.Errorf("%w (%d-byte limit)", ErrTooLarge, maxUploadBytes)
			}
			return nil, nil, fmt.Errorf("multipart form: %w", err)
		}
		var err error
		if inputFile, err = formFile(r, "input"); err != nil {
			return nil, nil, err
		}
		if targetFile, err = formFile(r, "target"); err != nil {
			return nil, nil, err
		}
		wire.Input = r.FormValue("input")
		wire.Target = r.FormValue("target")
		wire.Size = atoiDefault(r.FormValue("size"), 0)
		wire.Tiles = atoiDefault(r.FormValue("tiles"), 0)
		wire.Algorithm = r.FormValue("algorithm")
		wire.Solver = r.FormValue("solver")
		wire.Metric = r.FormValue("metric")
		wire.NoHistogramMatch = r.FormValue("no_histogram_match") == "true"
		wire.TimeoutMS = int64(atoiDefault(r.FormValue("timeout_ms"), 0))
		wire.Mode = r.FormValue("mode")
		wire.Format = r.FormValue("format")
		if v := r.FormValue("anytime"); v != "" {
			b := v == "true"
			wire.Anytime = &b
		}
	default: // application/json
		// Read one byte past the limit: a body that fills limit+1 bytes is
		// oversized and gets 413, where a plain LimitReader would silently
		// truncate it into corrupt (but parseable-looking) input.
		body, err := io.ReadAll(io.LimitReader(r.Body, maxUploadBytes+1))
		if err != nil {
			return nil, nil, fmt.Errorf("read body: %w", err)
		}
		if len(body) > maxUploadBytes {
			return nil, nil, fmt.Errorf("%w (%d-byte limit)", ErrTooLarge, maxUploadBytes)
		}
		if err := json.Unmarshal(body, wire); err != nil {
			return nil, nil, fmt.Errorf("json body: %w", err)
		}
	}

	if wire.Size == 0 {
		wire.Size = 256
	}
	if wire.Tiles == 0 {
		wire.Tiles = 16
	}
	if wire.Size < 2 || wire.Size > maxImageSide {
		return nil, nil, fmt.Errorf("size %d out of range [2, %d]", wire.Size, maxImageSide)
	}
	if wire.Tiles < 2 || wire.Size%wire.Tiles != 0 {
		return nil, nil, fmt.Errorf("size %d not divisible into %d tiles per side", wire.Size, wire.Tiles)
	}
	if wire.Mode != "" && wire.Mode != "sync" && wire.Mode != "async" {
		return nil, nil, fmt.Errorf("unknown mode %q (want sync or async)", wire.Mode)
	}

	req := &Request{
		Tiles:       wire.Tiles,
		NoHistMatch: wire.NoHistogramMatch,
		Timeout:     time.Duration(wire.TimeoutMS) * time.Millisecond,
		Anytime:     wire.Anytime,
	}
	// X-Request-Deadline (unix milliseconds) is the cluster router's
	// propagated client deadline: an absolute wall-clock instant that caps
	// timeout_ms, so a failover retry never restarts the clock from zero.
	if v := r.Header.Get("X-Request-Deadline"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("X-Request-Deadline %q: want unix milliseconds", v)
		}
		req.Deadline = time.UnixMilli(ms)
	}
	if wire.Algorithm != "" {
		alg, err := core.ParseAlgorithm(wire.Algorithm)
		if err != nil {
			return nil, nil, err
		}
		req.Algorithm = alg
	}
	if wire.Solver != "" {
		sol, err := core.ParseSolver(wire.Solver)
		if err != nil {
			return nil, nil, err
		}
		req.Solver = sol
	}
	switch strings.ToLower(wire.Metric) {
	case "", "l1":
		req.Metric = metric.L1
	case "l2":
		req.Metric = metric.L2
	default:
		return nil, nil, fmt.Errorf("unknown metric %q (want l1 or l2)", wire.Metric)
	}
	var err error
	if req.Input, err = resolveImage(inputFile, wire.Input, "input", wire.Size); err != nil {
		return nil, nil, err
	}
	if req.Target, err = resolveImage(targetFile, wire.Target, "target", wire.Size); err != nil {
		return nil, nil, err
	}
	return req, wire, nil
}

func formFile(r *http.Request, field string) ([]byte, error) {
	f, _, err := r.FormFile(field)
	if err == http.ErrMissingFile {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("form file %q: %w", field, err)
	}
	defer f.Close()
	// limit+1 so an at-limit file is distinguishable from an oversized one;
	// LimitReader alone would truncate silently, handing the pipeline a
	// corrupt image (or hashing the wrong content).
	data, err := io.ReadAll(io.LimitReader(f, maxUploadBytes+1))
	if err != nil {
		return nil, fmt.Errorf("form file %q: %w", field, err)
	}
	if len(data) > maxUploadBytes {
		return nil, fmt.Errorf("form file %q: %w (%d-byte limit)", field, ErrTooLarge, maxUploadBytes)
	}
	return data, nil
}

func atoiDefault(s string, def int) int {
	if s == "" {
		return def
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return def
	}
	return n
}

// resolveImage produces the n×n grayscale image for one role: an uploaded
// PNG/PGM when file bytes are present, otherwise a built-in synthetic scene
// by name.
func resolveImage(file []byte, scene, role string, n int) (*imgutil.Gray, error) {
	if len(file) > 0 {
		img, err := decodeImage(file)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", role, err)
		}
		if img.W != n || img.H != n {
			img = img.ResizeBilinear(n, n)
		}
		return img, nil
	}
	if scene == "" {
		return nil, fmt.Errorf("%s: provide a scene name or an uploaded image", role)
	}
	sc, err := synth.ParseScene(scene)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", role, err)
	}
	return synth.Generate(sc, n)
}

// decodeImage sniffs PNG vs PGM by magic bytes.
func decodeImage(data []byte) (*imgutil.Gray, error) {
	switch {
	case len(data) >= 8 && bytes.HasPrefix(data, []byte("\x89PNG\r\n\x1a\n")):
		img, err := png.Decode(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("png: %w", err)
		}
		return imgutil.GrayFromImage(img), nil
	case len(data) >= 2 && data[0] == 'P' && (data[1] == '2' || data[1] == '5'):
		return pnm.DecodeGray(bytes.NewReader(data))
	}
	return nil, errors.New("unrecognised image format (want PNG or PGM)")
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	writeJSON(w, jobResponseJSON{Status: "error", Error: msg})
}

func writeJSON(w io.Writer, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
