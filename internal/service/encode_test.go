package service

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"image/png"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/imgutil"
)

// TestPooledEncoderRoundTrip submits distinct-content jobs all at once — half
// through Submit, half over HTTP — on two workers sharing one device, so
// encodes overlap each other and the next job's device work. Every response
// must decode to exactly the mosaic a direct core.Generate produces: a pooled
// encoder buffer leaking across concurrent encodes would corrupt the pixels.
// Run under -race in CI.
func TestPooledEncoderRoundTrip(t *testing.T) {
	const size, tiles = 128, 16
	scenes := []string{"lena", "sailboat", "airplane", "peppers", "barbara", "baboon", "tiffany", "plasma"}
	targets := map[string]string{"direct": "gradient", "http": "sailboat"}

	imgs := make(map[string]*imgutil.Gray)
	for _, name := range append(scenes, "gradient") {
		imgs[name] = mustScene(t, name, size)
	}
	want := make(map[string]*imgutil.Gray)
	for path, target := range targets {
		for _, name := range scenes {
			res, err := core.Generate(imgs[name], imgs[target], core.Options{
				TilesPerSide: tiles, Device: cuda.New(2),
			})
			if err != nil {
				t.Fatalf("reference %s→%s: %v", name, target, err)
			}
			want[path+"/"+name] = res.Mosaic
		}
	}

	svc, ts := newTestServer(t, Config{Workers: 2, Devices: 1, QueueDepth: 2 * len(scenes)})
	var wg sync.WaitGroup
	for _, name := range scenes {
		wg.Add(2)
		go func(name string) {
			defer wg.Done()
			job, err := svc.Submit(&Request{
				Input: imgs[name], Target: imgs[targets["direct"]], Tiles: tiles,
			})
			if err != nil {
				t.Errorf("%s: Submit: %v", name, err)
				return
			}
			<-job.Done()
			st, res, err := job.Snapshot()
			if st != JobDone || err != nil {
				t.Errorf("%s: state %s, err %v", name, st, err)
				return
			}
			img, err := png.Decode(bytes.NewReader(res.PNG))
			if err != nil {
				t.Errorf("%s: decode JobResult.PNG: %v", name, err)
				return
			}
			if !imgutil.GrayFromImage(img).Equal(want["direct/"+name]) {
				t.Errorf("%s: JobResult.PNG pixels differ from core.Generate", name)
			}
		}(name)
		go func(name string) {
			defer wg.Done()
			body := fmt.Sprintf(`{"input":%q,"target":%q,"size":%d,"tiles":%d}`, name, targets["http"], size, tiles)
			resp, err := http.Post(ts.URL+"/v1/mosaic", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("%s: POST: %v", name, err)
				return
			}
			defer resp.Body.Close()
			var jr jobResponseJSON
			if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d, decode err %v (%s)", name, resp.StatusCode, err, jr.Error)
				return
			}
			raw, err := base64.StdEncoding.DecodeString(jr.PNGBase64)
			if err != nil {
				t.Errorf("%s: base64: %v", name, err)
				return
			}
			img, err := png.Decode(bytes.NewReader(raw))
			if err != nil {
				t.Errorf("%s: decode png_base64: %v", name, err)
				return
			}
			if !imgutil.GrayFromImage(img).Equal(want["http/"+name]) {
				t.Errorf("%s: png_base64 pixels differ from core.Generate", name)
			}
		}(name)
	}
	wg.Wait()
}

// BenchmarkEncodeMosaic512 measures the response encode on one 512² mosaic at
// S=32² (airplane onto peppers) and reports the encoded size as png_bytes.
func BenchmarkEncodeMosaic512(b *testing.B) {
	const size, tiles = 512, 32
	res, err := core.Generate(mustScene(b, "airplane", size), mustScene(b, "peppers", size), core.Options{TilesPerSide: tiles})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		data, err := encodePNG(res.Mosaic)
		if err != nil {
			b.Fatal(err)
		}
		n = len(data)
	}
	b.ReportMetric(float64(n), "png_bytes")
}
