package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is one request as the client saw it.
type outcome struct {
	req *request
	// due is when the request was scheduled (open loop) or issued (closed
	// loop); latency is measured from it.
	due, sent, end time.Time
	status         int
	backend        string
	resp           mosaicResponse
	err            error
}

func (o *outcome) latency() time.Duration { return o.end.Sub(o.due) }

// ok reports an HTTP success carrying a complete (non-partial) answer.
func (o *outcome) ok() bool {
	return o.err == nil && o.status == http.StatusOK && !o.resp.Partial && o.resp.Status == "done"
}

func (o *outcome) describe() string {
	switch {
	case o.err != nil:
		return o.err.Error()
	case o.status != http.StatusOK:
		return fmt.Sprintf("HTTP %d: %s", o.status, o.resp.Error)
	case o.resp.Partial:
		return "partial answer"
	}
	return "status " + o.resp.Status
}

// mosaicResponse is the slice of the mosaicd job JSON the benchmark reads.
type mosaicResponse struct {
	RequestID  string  `json:"request_id"`
	Status     string  `json:"status"`
	Error      string  `json:"error"`
	Cache      string  `json:"cache"`
	TotalError int64   `json:"total_error"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	Partial    bool    `json:"partial"`
	PNGBase64  string  `json:"png_base64"`
}

// newClient allows at most nproc connections: the load is one process with
// at most nproc concurrent callers.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     nproc(),
		MaxIdleConnsPerHost: nproc(),
		DisableCompression:  true,
	}}
}

// send posts one submission synchronously.
func send(client *http.Client, url string, r *request) outcome {
	o := outcome{req: r, sent: time.Now()}
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/mosaic", bytes.NewReader(r.body))
	if err != nil {
		o.err, o.end = err, time.Now()
		return o
	}
	hreq.Header.Set("Content-Type", r.ctype)
	hreq.Header.Set("X-Request-ID", r.id)
	resp, err := client.Do(hreq)
	if err != nil {
		o.err, o.end = err, time.Now()
		return o
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.status = resp.StatusCode
	o.backend = resp.Header.Get("X-Mosaic-Backend")
	if err == nil {
		err = json.Unmarshal(data, &o.resp)
	}
	o.err = err
	o.end = time.Now()
	return o
}

// genHealth describes how well the open-loop generator kept its schedule.
type genHealth struct {
	Scheduled int     `json:"scheduled"`
	RatePerS  float64 `json:"rate_per_s"`
	LagP99MS  float64 `json:"lag_p99_ms"`
	LagMaxMS  float64 `json:"lag_max_ms"`
	// BacklogFirst and BacklogLast are the mean number of requests due but
	// not yet answered, sampled at each scheduled send, over the first and
	// last third of the schedule.
	BacklogFirst float64 `json:"backlog_first"`
	BacklogLast  float64 `json:"backlog_last"`
}

// invalid names why the open-loop measurement cannot stand as a latency:
// the generator fell behind its schedule by a sizeable share of the
// inter-arrival gap (Go preempts busy goroutines only every ~10 ms, so a
// few ms of lag are normal on a saturated host), or the backlog of
// unanswered requests grew by more than the client's own concurrency.
func (g *genHealth) invalid() string {
	gap := 1000 / g.RatePerS
	switch {
	case g.LagP99MS > gap/4 || g.LagMaxMS > gap:
		return fmt.Sprintf("generator ran late (p99 %.1f ms, max %.1f ms, gap %.0f ms)", g.LagP99MS, g.LagMaxMS, gap)
	case g.BacklogLast-g.BacklogFirst > float64(nproc()):
		return fmt.Sprintf("backlog grew from %.1f to %.1f requests", g.BacklogFirst, g.BacklogLast)
	}
	return ""
}

// openLoop sends reqs on a fixed schedule at rate per second regardless of
// how fast answers come back. At most nproc requests are on the wire; a
// request that finds every connection busy waits in the client, and that
// wait counts in its latency because latency runs from the scheduled time.
func openLoop(reqs []*request, rate float64, do func(*request) outcome) ([]outcome, genHealth) {
	n := len(reqs)
	outs := make([]outcome, n)
	dues := make([]time.Time, n)
	queue := make(chan int, n) // holds the whole schedule: the backlog is unbounded by design
	var done atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nproc(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				outs[i] = do(reqs[i])
				outs[i].due = dues[i]
				done.Add(1)
			}
		}()
	}
	lags := make([]float64, n)
	backlog := make([]float64, n)
	start := time.Now().Add(20 * time.Millisecond)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		dues[i] = due
		lags[i] = float64(time.Since(due)) / 1e6
		backlog[i] = float64(int64(i) - done.Load())
		queue <- i
	}
	close(queue)
	wg.Wait()
	third := max(1, n/3)
	return outs, genHealth{
		Scheduled:    n,
		RatePerS:     rate,
		LagP99MS:     quantile(lags, 0.99),
		LagMaxMS:     slices.Max(lags),
		BacklogFirst: mean(backlog[:third]),
		BacklogLast:  mean(backlog[n-third:]),
	}
}

// closedLoop runs `clients` callers that each issue their next request as
// soon as the previous one answers, until dur has passed or reqs run out.
// It returns the outcomes in issue order.
func closedLoop(reqs []*request, clients int, dur time.Duration, do func(*request) outcome) []outcome {
	var next atomic.Int64
	outs := make([]outcome, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				outs[i] = do(reqs[i])
				outs[i].due = outs[i].sent
			}
		}()
	}
	wg.Wait()
	return outs[:min(int(next.Load()), len(reqs))]
}

// blockQuantile is the median over consecutive whole blocks of xs of each
// block's q-quantile: exact-s64 reports per-cycle figures this way, so one
// slow cycle on a shared host moves one block, not the result.
func blockQuantile(xs []float64, size int, q float64) float64 {
	var per []float64
	for i := 0; i+size <= len(xs); i += size {
		per = append(per, quantile(xs[i:i+size], q))
	}
	if len(per) == 0 {
		return quantile(xs, q)
	}
	return median(per)
}

// closedThroughput is valid answers per second in a closed loop, by
// Little's law: clients ÷ mean latency over the longest prefix of the issue
// order made of whole decks. Whole decks keep the served mix the same in
// every run; Little's law leaves out the ragged start and end of the
// window, where fewer than all clients are busy.
func closedThroughput(outs []outcome, valid []bool, clients, deck int) float64 {
	k := max(1, len(outs)/deck) * deck
	k = min(k, len(outs))
	var busy time.Duration
	good := 0
	for i := 0; i < k; i++ {
		busy += outs[i].end.Sub(outs[i].sent)
		if valid[i] {
			good++
		}
	}
	return float64(clients*good) / busy.Seconds()
}

// quantile is the nearest-rank q-quantile of xs (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
