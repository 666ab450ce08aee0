package metric

// The differential oracle battery: every Step-2 builder, under every metric
// and both orientation modes — plus the colour and proxy matrices — must
// produce a cost matrix bit-identical to the crop-and-score oracle
// (oracle_test.go), and, since the search is deterministic given a matrix,
// an identical final permutation. Scenes are randomized (seeded synth
// pairs) so the equivalence is not an artifact of one input.

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/cuda"
	"repro/internal/imgutil"
	"repro/internal/synth"
	"repro/internal/tile"
	"repro/internal/tilestore"
)

// scenePair is one randomized test scene: two synth images on a shared
// geometry, and a proxy resolution that divides its tile side.
type scenePair struct {
	name   string
	n, m   int
	in     synth.Scene
	tgt    synth.Scene
	proxyD int
}

func storeScenes() []scenePair {
	return []scenePair{
		{"lena-sailboat-64", 64, 8, synth.Lena, synth.Sailboat, 4},
		{"plasma-checker-48", 48, 6, synth.Plasma, synth.Checker, 3},
		{"baboon-peppers-45", 45, 9, synth.Baboon, synth.Peppers, 3}, // odd side → padded stride
	}
}

func (sc scenePair) build(t testing.TB) (inG, tgtG *tile.Grid, inS, tgtS *tilestore.Store) {
	t.Helper()
	inImg := synth.MustGenerate(sc.in, sc.n)
	tgtImg := synth.MustGenerate(sc.tgt, sc.n)
	var err error
	if inG, err = tile.NewGrid(inImg, sc.m); err != nil {
		t.Fatal(err)
	}
	if tgtG, err = tile.NewGrid(tgtImg, sc.m); err != nil {
		t.Fatal(err)
	}
	if inS, err = tilestore.FromImage(inImg, sc.m); err != nil {
		t.Fatal(err)
	}
	if tgtS, err = tilestore.FromImage(tgtImg, sc.m); err != nil {
		t.Fatal(err)
	}
	return inG, tgtG, inS, tgtS
}

// buildRGB renders the scene pair in colour, as grids for the oracle and
// as colour stores for the builders.
func (sc scenePair) buildRGB(t testing.TB) (inG, tgtG *tile.RGBGrid, inS, tgtS *tilestore.Store) {
	t.Helper()
	inImg, err := synth.GenerateRGB(sc.in, sc.n)
	if err != nil {
		t.Fatal(err)
	}
	tgtImg, err := synth.GenerateRGB(sc.tgt, sc.n)
	if err != nil {
		t.Fatal(err)
	}
	if inG, err = tile.NewRGBGrid(inImg, sc.m); err != nil {
		t.Fatal(err)
	}
	if tgtG, err = tile.NewRGBGrid(tgtImg, sc.m); err != nil {
		t.Fatal(err)
	}
	inS, tgtS = rgbStoresOf(t, inG, tgtG)
	return inG, tgtG, inS, tgtS
}

// checkAgainst fails unless got equals the oracle matrix and derives the
// same final permutation under the deterministic swap search greedyLocal.
func checkAgainst(t *testing.T, got, want *Matrix) {
	t.Helper()
	if !got.Equal(want) {
		t.Fatal("store-backed matrix differs from the oracle")
	}
	if !greedyLocal(got).Equal(greedyLocal(want)) {
		t.Fatal("final permutations differ")
	}
}

// TestTileStoreBuildersEquivalent is the differential oracle battery: for
// every (builder × metric × orientation) combination the store-backed build
// must be bit-identical to the oracle — matrices AND the final permutations
// the search derives from them. The "" case is the BuildStore dispatch on a
// device; "rgb" runs the host and device builders on colour stores, and
// "proxy" the descriptor matrix.
func TestTileStoreBuildersEquivalent(t *testing.T) {
	for _, sc := range storeScenes() {
		inG, tgtG, inS, tgtS := sc.build(t)
		rgbInG, rgbTgtG, rgbInS, rgbTgtS := sc.buildRGB(t)
		for _, met := range []Metric{L1, L2} {
			want := oracleMatrix(inG, tgtG, met)
			for _, tc := range []struct {
				name  string
				build func() (*Matrix, error)
			}{
				{"blocked", func() (*Matrix, error) { return BuildStoreBlocked(inS, tgtS, met) }},
				{"device", func() (*Matrix, error) { return BuildStoreDevice(cuda.New(0), inS, tgtS, met) }},
				{"", func() (*Matrix, error) { return BuildStore(cuda.New(0), inS, tgtS, met, BuilderAuto) }},
			} {
				t.Run(fmt.Sprintf("%s/%v/%s", sc.name, met, tc.name), func(t *testing.T) {
					got, err := tc.build()
					if err != nil {
						t.Fatal(err)
					}
					checkAgainst(t, got, want)
				})
			}
			// Oriented: host and device variants against the oracle.
			t.Run(fmt.Sprintf("%s/%v/oriented", sc.name, met), func(t *testing.T) {
				want := oracleOriented(inG, tgtG, met)
				got, err := BuildOrientedStore(inS, tgtS, met)
				if err != nil {
					t.Fatal(err)
				}
				checkOrientedEqual(t, got, want)
				gotDev, err := BuildOrientedStoreDevice(cuda.New(0), inS, tgtS, met)
				if err != nil {
					t.Fatal(err)
				}
				checkOrientedEqual(t, gotDev, want)
				if !greedyLocal(&got.Matrix).Equal(greedyLocal(&want.Matrix)) {
					t.Fatal("final permutations differ (oriented)")
				}
			})
			t.Run(fmt.Sprintf("%s/%v/rgb", sc.name, met), func(t *testing.T) {
				want := oracleRGBMatrix(rgbInG, rgbTgtG, met)
				got, err := BuildStoreBlocked(rgbInS, rgbTgtS, met)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainst(t, got, want)
				gotDev, err := BuildStoreDevice(cuda.New(0), rgbInS, rgbTgtS, met)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainst(t, gotDev, want)
			})
			t.Run(fmt.Sprintf("%s/%v/proxy", sc.name, met), func(t *testing.T) {
				got, err := BuildProxy(inS, tgtS, met, sc.proxyD)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainst(t, got, oracleProxy(inG, tgtG, met, sc.proxyD))
			})
		}
	}
}

// TestStoreContextBuilders: the fault-aware device builder matches the
// oracle on a clean device and returns the typed launch error, without a
// matrix, on a faulted one.
func TestStoreContextBuilders(t *testing.T) {
	sc := storeScenes()[1]
	inG, tgtG, inS, tgtS := sc.build(t)
	ctx := context.Background()
	got, err := BuildStoreDeviceContext(ctx, cuda.New(0), inS, tgtS, L2)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(oracleMatrix(inG, tgtG, L2)) {
		t.Fatal("BuildStoreDeviceContext differs from the oracle")
	}
	bad := cuda.New(0).WithFaults(&cuda.FaultPlan{EveryNth: 1})
	got, err = BuildStoreDeviceContext(ctx, bad, inS, tgtS, L1)
	if !errors.Is(err, cuda.ErrLaunchFailed) || got != nil {
		t.Fatalf("faulted launch returned (%v, %v), want (nil, ErrLaunchFailed)", got, err)
	}
}

// TestBuildStoreRejections covers the store builders' validation errors.
func TestBuildStoreRejections(t *testing.T) {
	a, err := tilestore.FromImage(imgutil.NewGray(16, 16), 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tilestore.FromImage(imgutil.NewGray(16, 16), 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildStoreBlocked(a, b, L1); err == nil {
		t.Fatal("mismatched stores accepted")
	}
	if _, err := BuildStoreBlocked(a, a, Metric(99)); err == nil {
		t.Fatal("invalid metric accepted")
	}
	if _, err := BuildStore(nil, a, a, L1, Builder("nope")); err == nil {
		t.Fatal("unknown builder accepted")
	}
	if _, err := BuildStoreDeviceContext(context.Background(), cuda.New(1), a, b, L1); err == nil {
		t.Fatal("fault-aware device builder accepted mismatched stores")
	}
}

// benchStoreDevice times the store-backed §V kernel on 512² lena→peppers at
// tile side m. SetBytes counts both padded blocks of every pair — the bytes
// the kernel streams, which is what perfbench's metric.gbps reports
// whenever M² is a multiple of the store's PadAlign.
func benchStoreDevice(b *testing.B, m int) {
	in, err := tilestore.FromImage(synth.MustGenerate(synth.Lena, 512), m)
	if err != nil {
		b.Fatal(err)
	}
	tgt, err := tilestore.FromImage(synth.MustGenerate(synth.Peppers, 512), m)
	if err != nil {
		b.Fatal(err)
	}
	dev := cuda.New(0)
	s := int64(in.S())
	b.SetBytes(s * s * 2 * int64(in.Stride))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildStoreDevice(dev, in, tgt, L1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildStoreDevice512S1024(b *testing.B) { benchStoreDevice(b, 16) }

func BenchmarkBuildStoreDevice512S4096(b *testing.B) { benchStoreDevice(b, 8) }
