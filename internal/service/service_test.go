package service

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"image/png"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/imgutil"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// newTestServer boots a service with its HTTP surface on an httptest
// listener. The caller owns shutdown via the returned cleanup.
func newTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	mux := telemetry.NewMux(svc.Registry(), telemetry.WithReadiness(svc.Ready))
	svc.RegisterRoutes(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

func postJSON(t *testing.T, url string, body string) (*http.Response, jobResponseJSON) {
	t.Helper()
	resp, err := http.Post(url+"/v1/mosaic", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	var jr jobResponseJSON
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	if err := json.Unmarshal(data, &jr); err != nil {
		t.Fatalf("decode response %q: %v", data, err)
	}
	return resp, jr
}

func decodeBase64PNG(t *testing.T, b64 string) *imgutil.Gray {
	t.Helper()
	raw, err := base64.StdEncoding.DecodeString(b64)
	if err != nil {
		t.Fatalf("base64: %v", err)
	}
	img, err := png.Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("png: %v", err)
	}
	return imgutil.GrayFromImage(img)
}

// TestConcurrentJobsSharedDevice is the acceptance-criteria core: 8
// concurrent requests over one pooled device, no launch-guard panic (the
// whole process would die), and every response bit-identical to the serial
// single-request pipeline. Run under -race in CI.
func TestConcurrentJobsSharedDevice(t *testing.T) {
	const size, tiles = 128, 16
	scenes := []string{"lena", "sailboat", "airplane", "peppers", "barbara", "baboon", "tiffany", "plasma"}
	const target = "gradient"

	// Serial references, each on a private device.
	want := make(map[string]*core.Result)
	tgt := mustScene(t, target, size)
	for _, name := range scenes {
		res, err := core.Generate(mustScene(t, name, size), tgt, core.Options{
			TilesPerSide: tiles, Device: cuda.New(2),
		})
		if err != nil {
			t.Fatalf("reference %s: %v", name, err)
		}
		want[name] = res
	}

	_, ts := newTestServer(t, Config{Workers: 8, QueueDepth: 16, Devices: 1, DeviceWorkers: 2})
	var wg sync.WaitGroup
	for _, name := range scenes {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			body := fmt.Sprintf(`{"input":%q,"target":%q,"size":%d,"tiles":%d}`, name, target, size, tiles)
			resp, err := http.Post(ts.URL+"/v1/mosaic", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("%s: POST: %v", name, err)
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d: %s", name, resp.StatusCode, data)
				return
			}
			var jr jobResponseJSON
			if err := json.Unmarshal(data, &jr); err != nil {
				t.Errorf("%s: decode: %v", name, err)
				return
			}
			ref := want[name]
			if jr.TotalError != ref.TotalError {
				t.Errorf("%s: total_error = %d, want %d", name, jr.TotalError, ref.TotalError)
			}
			got := decodeBase64PNG(t, jr.PNGBase64)
			if !got.Equal(ref.Mosaic) {
				t.Errorf("%s: mosaic differs from the serial reference", name)
			}
		}(name)
	}
	wg.Wait()
}

// TestCacheHitSkipsCostMatrix: the second identical request reuses the
// prepared input — cache=hit, no error-matrix span, counter moved.
func TestCacheHitSkipsCostMatrix(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 2})
	body := `{"input":"lena","target":"sailboat","size":128,"tiles":16}`

	resp, first := postJSON(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d (%s)", resp.StatusCode, first.Error)
	}
	if first.Cache != "miss" {
		t.Fatalf("first request cache = %q, want miss", first.Cache)
	}
	if !containsSpan(first.Spans, trace.SpanCostMatrix) {
		t.Fatalf("first request spans %v missing %s", first.Spans, trace.SpanCostMatrix)
	}

	resp, second := postJSON(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second request: %d", resp.StatusCode)
	}
	if second.Cache != "hit" {
		t.Fatalf("second request cache = %q, want hit", second.Cache)
	}
	if containsSpan(second.Spans, trace.SpanCostMatrix) {
		t.Fatalf("cache hit still ran Step 2: spans %v", second.Spans)
	}
	if !containsSpan(second.Spans, trace.SpanRearrange) {
		t.Fatalf("cache hit missing Step 3: spans %v", second.Spans)
	}
	if second.TotalError != first.TotalError || second.PNGBase64 != first.PNGBase64 {
		t.Fatal("cache hit returned a different mosaic")
	}

	snap := svc.Registry().Snapshot()
	if hits := snap.Counters["mosaic_service_cache_hits_total"]; hits < 1 {
		t.Fatalf("mosaic_service_cache_hits_total = %v, want >= 1", hits)
	}
	if misses := snap.Counters["mosaic_service_cache_misses_total"]; misses != 1 {
		t.Fatalf("mosaic_service_cache_misses_total = %v, want 1", misses)
	}
}

// TestQueueFullBackpressure: with one busy worker and a one-slot queue, the
// third submission is rejected with 429 + Retry-After instead of queuing
// unboundedly, and the queue recovers once the blockage clears.
func TestQueueFullBackpressure(t *testing.T) {
	release := make(chan struct{})
	var gateOnce sync.Once
	started := make(chan struct{}, 4)
	cfg := Config{
		Workers: 1, QueueDepth: 1,
		testJobStart: func(*Job) {
			started <- struct{}{}
			<-release
		},
	}
	svc, ts := newTestServer(t, cfg)
	defer gateOnce.Do(func() { close(release) })

	body := `{"input":"lena","target":"sailboat","size":64,"tiles":8}`
	// First job occupies the worker…
	go func() { _, _ = http.Post(ts.URL+"/v1/mosaic", "application/json", strings.NewReader(body)) }()
	<-started
	// …second fills the queue slot…
	if _, err := svc.Submit(mustRequest(t, 64, 8)); err != nil {
		t.Fatalf("queue-slot submit: %v", err)
	}
	// …third must be rejected, with the HTTP mapping intact.
	resp, jr := postJSON(t, ts.URL, body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d (%s), want 429", resp.StatusCode, jr.Error)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
	snap := svc.Registry().Snapshot()
	if got := snap.Counters[`mosaic_service_rejected_total{reason="queue-full"}`]; got < 1 {
		t.Fatalf("rejected counter = %v, want >= 1", got)
	}

	gateOnce.Do(func() { close(release) })
	// Backpressure is transient: the same request succeeds once drained.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, _ := postJSON(t, ts.URL, body)
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never recovered: last status %d", resp.StatusCode)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestGracefulDrain: Drain finishes queued and in-flight jobs, flips
// /readyz to 503 while /healthz stays 200, and rejects new submissions.
func TestGracefulDrain(t *testing.T) {
	release := make(chan struct{})
	cfg := Config{
		Workers: 2, QueueDepth: 8,
		testJobStart: func(*Job) { <-release },
	}
	svc, ts := newTestServer(t, cfg)

	var jobs []*Job
	for i := 0; i < 3; i++ {
		j, err := svc.Submit(mustRequest(t, 64, 8))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- svc.Drain(ctx)
	}()

	// Readiness flips as soon as Drain begins.
	waitFor(t, func() bool {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable
	}, "readyz never flipped to 503")
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during drain: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}

	// New work is rejected with 503.
	resp, _ := postJSON(t, ts.URL, `{"input":"lena","target":"sailboat","size":64,"tiles":8}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain = %d, want 503", resp.StatusCode)
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for i, j := range jobs {
		st, res, err := j.Snapshot()
		if st != JobDone || err != nil || res == nil {
			t.Fatalf("job %d after drain: state=%s err=%v", i, st, err)
		}
	}
}

// TestAsyncJobLifecycle: async submissions return 202 + a pollable job that
// reaches done with a result; unknown jobs 404.
func TestAsyncJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, jr := postJSON(t, ts.URL, `{"input":"lena","target":"sailboat","size":64,"tiles":8,"mode":"async"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit = %d, want 202", resp.StatusCode)
	}
	if jr.JobID == "" || jr.StatusURL == "" {
		t.Fatalf("async response missing job id/status url: %+v", jr)
	}

	var final jobResponseJSON
	waitFor(t, func() bool {
		r, err := http.Get(ts.URL + jr.StatusURL)
		if err != nil {
			return false
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			return false
		}
		if err := json.NewDecoder(r.Body).Decode(&final); err != nil {
			return false
		}
		return final.Status == string(JobDone)
	}, "async job never finished")
	if final.PNGBase64 == "" || final.TotalError <= 0 {
		t.Fatalf("async result incomplete: %+v", final.Status)
	}

	if r, err := http.Get(ts.URL + "/v1/jobs/nope"); err != nil || r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %v %v, want 404", r.StatusCode, err)
	} else {
		r.Body.Close()
	}
}

// TestJobDeadline: a job whose deadline expires fails with 504.
func TestJobDeadline(t *testing.T) {
	cfg := Config{
		Workers: 1,
		testJobStart: func(j *Job) {
			<-j.ctx.Done() // park until the per-job deadline fires
		},
	}
	_, ts := newTestServer(t, cfg)
	resp, jr := postJSON(t, ts.URL, `{"input":"lena","target":"sailboat","size":64,"tiles":8,"timeout_ms":50}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline status = %d (%s), want 504", resp.StatusCode, jr.Error)
	}
}

// TestBadRequests: malformed submissions map to 400, wrong methods to 405.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for name, body := range map[string]string{
		"unknown scene":     `{"input":"nosuch","target":"sailboat"}`,
		"unknown algorithm": `{"input":"lena","target":"sailboat","algorithm":"nope"}`,
		"unknown metric":    `{"input":"lena","target":"sailboat","metric":"l7"}`,
		"bad tiling":        `{"input":"lena","target":"sailboat","size":100,"tiles":16}`,
		"oversized":         `{"input":"lena","target":"sailboat","size":65536,"tiles":16}`,
		"bad mode":          `{"input":"lena","target":"sailboat","mode":"later"}`,
		"not json":          `{{{`,
	} {
		resp, _ := postJSON(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
	r, err := http.Get(ts.URL + "/v1/mosaic")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/mosaic = %d, want 405", r.StatusCode)
	}
}

// TestMultipartUpload: PNG uploads round-trip through the multipart path
// and match the scene-name path bit for bit.
func TestMultipartUpload(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, viaScene := postJSON(t, ts.URL, `{"input":"lena","target":"sailboat","size":64,"tiles":8}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scene request: %d", resp.StatusCode)
	}

	encode := func(img *imgutil.Gray) []byte {
		var buf bytes.Buffer
		if err := png.Encode(&buf, img.ToImage()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var body bytes.Buffer
	mw := newMultipart(t, &body, map[string]string{"size": "64", "tiles": "8"}, map[string][]byte{
		"input":  encode(mustScene(t, "lena", 64)),
		"target": encode(mustScene(t, "sailboat", 64)),
	})
	r, err := http.Post(ts.URL+"/v1/mosaic", mw, &body)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	data, _ := io.ReadAll(r.Body)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("multipart: %d: %s", r.StatusCode, data)
	}
	var viaUpload jobResponseJSON
	if err := json.Unmarshal(data, &viaUpload); err != nil {
		t.Fatal(err)
	}
	if viaUpload.TotalError != viaScene.TotalError {
		t.Fatalf("upload total_error = %d, scene path = %d", viaUpload.TotalError, viaScene.TotalError)
	}
	// The identical pixels arrive via a different wire path, so this is the
	// cache's content-addressing at work: same content → hit.
	if viaUpload.Cache != "hit" {
		t.Fatalf("upload cache = %q, want hit (content-addressed)", viaUpload.Cache)
	}
}

// --- helpers ---

func mustScene(t testing.TB, name string, n int) *imgutil.Gray {
	t.Helper()
	sc, err := synth.ParseScene(name)
	if err != nil {
		t.Fatal(err)
	}
	img, err := synth.Generate(sc, n)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func mustRequest(t *testing.T, size, tiles int) *Request {
	t.Helper()
	return &Request{
		Input:  mustScene(t, "lena", size),
		Target: mustScene(t, "sailboat", size),
		Tiles:  tiles,
	}
}

func containsSpan(spans []string, name string) bool {
	for _, s := range spans {
		if s == name {
			return true
		}
	}
	return false
}

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// newMultipart writes a multipart body and returns its content type.
func newMultipart(t *testing.T, w io.Writer, fields map[string]string, files map[string][]byte) string {
	t.Helper()
	mw := multipart.NewWriter(w)
	for k, v := range fields {
		if err := mw.WriteField(k, v); err != nil {
			t.Fatal(err)
		}
	}
	for k, data := range files {
		fw, err := mw.CreateFormFile(k, k+".png")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fw.Write(data); err != nil {
			t.Fatal(err)
		}
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	return mw.FormDataContentType()
}
