package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/cuda"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// backend is one in-process mosaicd: the service plus its HTTP listener,
// mounted exactly as cmd/mosaicd mounts them.
type backend struct {
	svc *service.Service
	srv *telemetry.Server
	url string
}

// backendConfig sizes a mosaicd to the host: nproc workers and nproc device
// workers on one device; cacheBytes 0 keeps the default prepared cache.
func backendConfig(cfg config, cacheBytes int64) (service.Config, error) {
	sc := service.Config{
		Workers:       nproc(),
		DeviceWorkers: nproc(),
		Devices:       1,
		CacheBytes:    cacheBytes,
	}
	if cfg.slowKernel != "" {
		plan, err := cuda.ParseFaultSpec(cfg.slowKernel)
		if err != nil {
			return sc, fmt.Errorf("slow-kernel plan: %w", err)
		}
		sc.DeviceFaults = func(int) cuda.FaultInjector { return plan.Clone() }
	}
	return sc, nil
}

func startBackend(sc service.Config) (*backend, error) {
	svc := service.New(sc)
	mux := telemetry.NewMux(svc.Registry(), telemetry.WithReadiness(svc.Ready))
	svc.RegisterRoutes(mux)
	srv, err := telemetry.StartServer("127.0.0.1:0", svc.Registry(), mux)
	if err != nil {
		svc.Close()
		return nil, err
	}
	b := &backend{svc: svc, srv: srv, url: "http://" + srv.Addr}
	if err := waitReady(b.url); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *backend) close() {
	_ = b.srv.Close()
	b.svc.Close()
}

// router is an in-process mosaic-router over backends.
type router struct {
	rt  *cluster.Router
	srv *telemetry.Server
	url string
}

func startRouter(backends []*backend) (*router, error) {
	var urls []string
	for _, b := range backends {
		urls = append(urls, b.url)
	}
	rt, err := cluster.New(cluster.Config{Backends: urls})
	if err != nil {
		return nil, err
	}
	mux := telemetry.NewMux(rt.Registry(), telemetry.WithReadiness(rt.Ready))
	rt.RegisterRoutes(mux)
	srv, err := telemetry.StartServer("127.0.0.1:0", rt.Registry(), mux)
	if err != nil {
		rt.Close()
		return nil, err
	}
	r := &router{rt: rt, srv: srv, url: "http://" + srv.Addr}
	if err := waitReady(r.url); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *router) close() {
	_ = r.srv.Close()
	r.rt.Close()
}

func waitReady(url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after 10s", url)
}

// system is the service under test as clients see it: one URL, plus the
// backends whose /metrics and access logs the traced run reads.
type system struct {
	url      string
	backends []*backend
	router   *router
	logs     []*accessLog
}

func (s *system) close() {
	if s.router != nil {
		s.router.close()
	}
	for _, b := range s.backends {
		b.close()
	}
}

// counters scrapes /metrics from every backend (and the router) and sums
// each series name across them, labels dropped.
func (s *system) counters() (map[string]float64, error) {
	out := map[string]float64{}
	urls := []string{}
	for _, b := range s.backends {
		urls = append(urls, b.url)
	}
	if s.router != nil {
		urls = append(urls, s.router.url)
	}
	for _, u := range urls {
		if err := scrape(u, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func scrape(url string, into map[string]float64) error {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		series, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.Fields(val)[0], 64)
		if err != nil {
			continue
		}
		name, _, _ := strings.Cut(series, "{")
		into[name] += v
	}
	return sc.Err()
}

// accessLog collects a backend's access-log lines in memory.
type accessLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *accessLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

// accessLine is the slice of a mosaicd access-log record the benchmark reads.
type accessLine struct {
	RequestID  string           `json:"request_id"`
	Outcome    string           `json:"outcome"`
	DurationNS int64            `json:"duration_ns"`
	PhasesNS   map[string]int64 `json:"phases_ns"`
	Cache      string           `json:"cache"`
	Batched    bool             `json:"batched"`
}

// lines parses every complete record written so far, keyed by request ID.
func (l *accessLog) lines() (map[string]accessLine, error) {
	l.mu.Lock()
	data := bytes.Clone(l.buf.Bytes())
	l.mu.Unlock()
	out := map[string]accessLine{}
	for _, raw := range bytes.Split(data, []byte{'\n'}) {
		if len(raw) == 0 {
			continue
		}
		var al accessLine
		if err := json.Unmarshal(raw, &al); err != nil {
			return nil, fmt.Errorf("access log: %w", err)
		}
		if al.RequestID == "" {
			return nil, errors.New("access log: record without request_id")
		}
		out[al.RequestID] = al
	}
	return out, nil
}
