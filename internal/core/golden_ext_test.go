package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/cuda"
	"repro/internal/synth"
)

// Golden gates for the pipeline variants beside the upright grayscale one:
// colour, dihedral orientations and the proxy Step-2 matrix, each on the
// fig8 pairs (128², S = 16²) and each on the host and on a device. Host and
// device runs share one hash per scene: only the Step-2 execution target
// differs, and every Step-2 target yields the same matrix. Like
// TestGoldenGalleryScenes, a changed hash is an output change of the whole
// pipeline, to be understood before repinning.

// goldenTargets names the two Step-2 execution targets every golden runs on.
var goldenTargets = []struct {
	name string
	dev  func() *cuda.Device
}{
	{"host", func() *cuda.Device { return nil }},
	{"device", func() *cuda.Device { return cuda.New(0) }},
}

func pixHash(pix []uint8) string {
	sum := sha256.Sum256(pix)
	return hex.EncodeToString(sum[:])
}

func TestGoldenRGB(t *testing.T) {
	want := map[string]string{
		"fig8-airplane-to-lena":   "dbad5942403dc5c8ed029cfe84a2e58cd763875f6f0b20302928a060db976c75",
		"fig8-peppers-to-barbara": "b7e55bd7d33066013944891535a700ec2299713995af79b0741f64f8eeec1288",
	}
	for _, sc := range goldenScenes {
		input, err := synth.GenerateRGB(sc.in, 128)
		if err != nil {
			t.Fatal(err)
		}
		target, err := synth.GenerateRGB(sc.tgt, 128)
		if err != nil {
			t.Fatal(err)
		}
		for _, tg := range goldenTargets {
			opts := Options{TilesPerSide: 16, Algorithm: Approximation, Device: tg.dev()}
			res, err := GenerateRGBContext(context.Background(), input, target, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", sc.name, tg.name, err)
			}
			if got := pixHash(res.Mosaic.Pix); got != want[sc.name] {
				t.Errorf("%s/%s: colour mosaic hash %s, want %s", sc.name, tg.name, got, want[sc.name])
			}
		}
	}
}

func TestGoldenOriented(t *testing.T) {
	want := map[string]string{
		"fig8-airplane-to-lena":   "139398c52d52e8c0916b9f91e260561a151ea9592a7150bb281f04dab4d68e8e",
		"fig8-peppers-to-barbara": "cc720b32980fb021fafb861057e2d7d1cdd7016e13b01f1da231f4eb03984ed8",
	}
	for _, sc := range goldenScenes {
		input := synth.MustGenerate(sc.in, 128)
		target := synth.MustGenerate(sc.tgt, 128)
		for _, tg := range goldenTargets {
			opts := Options{TilesPerSide: 16, Algorithm: Approximation, AllowOrientations: true, Device: tg.dev()}
			res, err := GenerateContext(context.Background(), input, target, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", sc.name, tg.name, err)
			}
			if got := pixHash(res.Mosaic.Pix); got != want[sc.name] {
				t.Errorf("%s/%s: oriented mosaic hash %s, want %s", sc.name, tg.name, got, want[sc.name])
			}
		}
	}
}

func TestGoldenProxy(t *testing.T) {
	want := map[string]string{
		"fig8-airplane-to-lena":   "875b41853ec1a9c543ed6430b0ef4fe1125e35c584316958e94ef7e3bb4b75c4",
		"fig8-peppers-to-barbara": "d694eb690d2e650a02e089285330bdac3a3a36980ec2b3f3ceb41404ec9c2ab2",
	}
	for _, sc := range goldenScenes {
		input := synth.MustGenerate(sc.in, 128)
		target := synth.MustGenerate(sc.tgt, 128)
		for _, tg := range goldenTargets {
			opts := Options{TilesPerSide: 16, Algorithm: Approximation, ProxyResolution: 4, Device: tg.dev()}
			res, err := GenerateContext(context.Background(), input, target, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", sc.name, tg.name, err)
			}
			if got := pixHash(res.Mosaic.Pix); got != want[sc.name] {
				t.Errorf("%s/%s: proxy mosaic hash %s, want %s", sc.name, tg.name, got, want[sc.name])
			}
		}
	}
}
