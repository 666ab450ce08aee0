package metric_test

// The differential oracle battery for the columnar store path: every named
// builder, under every metric and both orientation modes, must produce a
// cost matrix bit-identical to the legacy crop-path build — and, since the
// search is deterministic given a matrix, an identical final permutation.
// Scenes are randomized (seeded synth pairs) so the equivalence is not an
// artifact of one input.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cuda"
	"repro/internal/imgutil"
	"repro/internal/localsearch"
	"repro/internal/metric"
	"repro/internal/perm"
	"repro/internal/synth"
	"repro/internal/tile"
	"repro/internal/tilestore"
)

// scenePair is one randomized test scene: two synth images on a shared
// geometry.
type scenePair struct {
	name string
	n, m int
	in   synth.Scene
	tgt  synth.Scene
}

func storeScenes() []scenePair {
	return []scenePair{
		{"lena-sailboat-64", 64, 8, synth.Lena, synth.Sailboat},
		{"plasma-checker-48", 48, 6, synth.Plasma, synth.Checker},
		{"baboon-peppers-45", 45, 9, synth.Baboon, synth.Peppers}, // odd side → padded stride
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

// searchPerm runs the deterministic serial search on a matrix — the "final
// permutation" half of the oracle battery.
func searchPerm(t testing.TB, m *metric.Matrix) perm.Perm {
	t.Helper()
	p, _, err := localsearch.Serial(m, perm.Identity(m.S), localsearch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestTileStoreBuildersEquivalent is the differential oracle battery: for
// every (builder × metric × orientation) combination the store-backed build
// must be bit-identical to the legacy crop-path build of the same name —
// matrices AND the final permutations the search derives from them.
func TestTileStoreBuildersEquivalent(t *testing.T) {
	for _, sc := range storeScenes() {
		inG, tgtG, inS, tgtS := sc.build(t)
		for _, met := range []metric.Metric{metric.L1, metric.L2} {
			// Upright: every named builder plus auto, store vs crop path.
			for _, b := range append(metric.Builders(), metric.BuilderAuto) {
				t.Run(fmt.Sprintf("%s/%v/%s", sc.name, met, b), func(t *testing.T) {
					var dev *cuda.Device
					if b.NeedsDevice() || b == metric.BuilderAuto {
						dev = cuda.New(0)
					}
					want, err := metric.Build(dev, inG, tgtG, met, b)
					if err != nil {
						t.Fatal(err)
					}
					got, err := metric.BuildStore(dev, inS, tgtS, met, b)
					if err != nil {
						t.Fatal(err)
					}
					if !got.Equal(want) {
						t.Fatal("store-backed matrix differs from crop-path oracle")
					}
					if !searchPerm(t, got).Equal(searchPerm(t, want)) {
						t.Fatal("final permutations differ")
					}
				})
			}
			// Oriented: CPU and device variants against BuildOriented.
			t.Run(fmt.Sprintf("%s/%v/oriented", sc.name, met), func(t *testing.T) {
				want, err := metric.BuildOriented(inG, tgtG, met)
				if err != nil {
					t.Fatal(err)
				}
				got, err := metric.BuildOrientedStore(inS, tgtS, met)
				if err != nil {
					t.Fatal(err)
				}
				checkOrientedEqual(t, got, want)
				gotDev, err := metric.BuildOrientedStoreDevice(cuda.New(0), inS, tgtS, met)
				if err != nil {
					t.Fatal(err)
				}
				checkOrientedEqual(t, gotDev, want)
				if !searchPerm(t, &got.Matrix).Equal(searchPerm(t, &want.Matrix)) {
					t.Fatal("final permutations differ (oriented)")
				}
			})
		}
	}
}

func checkOrientedEqual(t *testing.T, got, want *metric.OrientedMatrix) {
	t.Helper()
	if !got.Matrix.Equal(&want.Matrix) {
		t.Fatal("oriented store-backed matrix differs from crop-path oracle")
	}
	for i := range got.Orient {
		if got.Orient[i] != want.Orient[i] {
			t.Fatalf("orientation[%d] = %v, want %v", i, got.Orient[i], want.Orient[i])
		}
	}
}

// TestBuildStoreShardedBitIdentical: splitting the matrix rows across 1..4
// concurrent devices must reproduce the single-device build exactly.
func TestBuildStoreShardedBitIdentical(t *testing.T) {
	sc := storeScenes()[0]
	_, _, inS, tgtS := sc.build(t)
	want, err := metric.BuildStoreDevice(cuda.New(0), inS, tgtS, metric.L2)
	if err != nil {
		t.Fatal(err)
	}
	for parts := 1; parts <= 4; parts++ {
		devs := make([]*cuda.Device, parts)
		for i := range devs {
			devs[i] = cuda.New(0)
		}
		got, err := metric.BuildStoreSharded(context.Background(), devs, inS, tgtS, metric.L2)
		if err != nil {
			t.Fatalf("sharded over %d devices: %v", parts, err)
		}
		if !got.Equal(want) {
			t.Fatalf("sharded build over %d devices differs from single-device build", parts)
		}
	}
}

// TestBuildStoreShardedFaults: an injected launch fault on one shard surfaces
// as that shard's typed error.
func TestBuildStoreShardedFaults(t *testing.T) {
	sc := storeScenes()[0]
	_, _, inS, tgtS := sc.build(t)
	good := cuda.New(0)
	bad := cuda.New(0).WithFaults(&cuda.FaultPlan{EveryNth: 1})
	if _, err := metric.BuildStoreSharded(context.Background(), []*cuda.Device{good, bad}, inS, tgtS, metric.L1); err == nil {
		t.Fatal("sharded build over a faulted device returned no error")
	}
}

// TestStoreContextBuilders: the fault-aware store builders succeed on a clean
// device and match the oracle.
func TestStoreContextBuilders(t *testing.T) {
	sc := storeScenes()[1]
	inG, tgtG, inS, tgtS := sc.build(t)
	want, err := metric.BuildSerial(inG, tgtG, metric.L2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	got, err := metric.BuildStoreDeviceContext(ctx, cuda.New(0), inS, tgtS, metric.L2)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("BuildStoreDeviceContext differs from serial oracle")
	}
	got, err = metric.BuildStoreRowsParallelContext(ctx, cuda.New(0), inS, tgtS, metric.L2)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("BuildStoreRowsParallelContext differs from serial oracle")
	}
}

// TestBuildStoreRejections mirrors the crop path's validation errors.
func TestBuildStoreRejections(t *testing.T) {
	a, err := tilestore.FromImage(imgutil.NewGray(16, 16), 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tilestore.FromImage(imgutil.NewGray(16, 16), 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := metric.BuildStoreSerial(a, b, metric.L1); err == nil {
		t.Fatal("mismatched stores accepted")
	}
	if _, err := metric.BuildStoreSerial(a, a, metric.Metric(99)); err == nil {
		t.Fatal("invalid metric accepted")
	}
	if _, err := metric.BuildStore(nil, a, a, metric.L1, metric.BuilderDevice); err == nil {
		t.Fatal("device builder without device accepted")
	}
	if _, err := metric.BuildStore(nil, a, a, metric.L1, metric.Builder("nope")); err == nil {
		t.Fatal("unknown builder accepted")
	}
	if _, err := metric.BuildStoreSharded(context.Background(), nil, a, a, metric.L1); err == nil {
		t.Fatal("sharded build with no devices accepted")
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
		if _, err := metric.BuildStoreDevice(dev, in, tgt, metric.L1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildStoreDevice512S1024(b *testing.B) { benchStoreDevice(b, 16) }

func BenchmarkBuildStoreDevice512S4096(b *testing.B) { benchStoreDevice(b, 8) }
