package core

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/synth"
	"repro/internal/tilestore"
)

// TestPreparedExposesStores: PrepareContext builds both columnar stores in
// the fused pass; the input store reflects the histogram-matched pixels and
// MemoryBytes charges the stores.
func TestPreparedExposesStores(t *testing.T) {
	input := synth.MustGenerate(synth.Lena, 128)
	target := synth.MustGenerate(synth.Sailboat, 128)
	prep, err := PrepareContext(context.Background(), input, target, Options{TilesPerSide: 16})
	if err != nil {
		t.Fatal(err)
	}
	in, tgt := prep.InputStore(), prep.TargetStore()
	if in == nil || tgt == nil {
		t.Fatal("Prepared missing a tile store")
	}
	if in.S() != prep.Tiles() || in.M != prep.TileSide() || tgt.S() != prep.Tiles() {
		t.Fatalf("store geometry S=%d M=%d vs prepared S=%d M=%d", in.S(), in.M, prep.Tiles(), prep.TileSide())
	}
	res, err := prep.FinishContext(context.Background(), Options{Algorithm: IdentityBaseline})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := tilestore.FromImage(res.Input, prep.TileSide())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in.Pix, ref.Pix) {
		t.Fatal("input store does not match the histogram-matched image")
	}
	if prep.MemoryBytes() < in.MemoryBytes()+tgt.MemoryBytes() {
		t.Fatalf("MemoryBytes %d does not cover the stores (%d)", prep.MemoryBytes(), in.MemoryBytes()+tgt.MemoryBytes())
	}
}

// TestPreparedMemoryBytesIsSumOfParts pins the cache weight to the bytes
// the artifacts hold: both pixel buffers, both stores, four bytes per int32
// matrix entry and, with orientations scored, one per orientation entry.
func TestPreparedMemoryBytesIsSumOfParts(t *testing.T) {
	input := synth.MustGenerate(synth.Lena, 128)
	target := synth.MustGenerate(synth.Sailboat, 128)
	for _, oriented := range []bool{false, true} {
		prep, err := PrepareContext(context.Background(), input, target, Options{TilesPerSide: 16, AllowOrientations: oriented})
		if err != nil {
			t.Fatal(err)
		}
		const s = 16 * 16
		want := int64(2*128*128) + prep.InputStore().MemoryBytes() + prep.TargetStore().MemoryBytes() + 4*s*s
		if oriented {
			want += s * s
		}
		if got := prep.MemoryBytes(); got != want {
			t.Errorf("oriented=%v: MemoryBytes %d, want %d", oriented, got, want)
		}
	}
}

// TestStoreCandidatesOption: the thumbnail-derived warm start drives
// ApproximationDirty to a valid mosaic whose reported error matches the
// matrix, both through GenerateContext and a Prepared reused via
// FinishContext (mergeFinishOptions must carry the flag through).
func TestStoreCandidatesOption(t *testing.T) {
	input := synth.MustGenerate(synth.Lena, 128)
	target := synth.MustGenerate(synth.Sailboat, 128)
	opts := Options{TilesPerSide: 16, Algorithm: ApproximationDirty, StoreCandidates: true}
	res, err := Generate(input, target, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Assignment.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.SearchStats.Passes < 1 {
		t.Fatalf("degenerate search stats %+v", res.SearchStats)
	}
	plain, err := Generate(input, target, Options{TilesPerSide: 16, Algorithm: ApproximationDirty})
	if err != nil {
		t.Fatal(err)
	}
	// Both land on swap-local plateaus of the same matrix; the warm-started
	// one must stay in the same cost regime.
	if float64(res.TotalError) > 1.1*float64(plain.TotalError) {
		t.Fatalf("store-candidate cost %d more than 10%% above exhaustive %d", res.TotalError, plain.TotalError)
	}

	prep, err := PrepareContext(context.Background(), input, target, Options{TilesPerSide: 16})
	if err != nil {
		t.Fatal(err)
	}
	got, err := prep.FinishContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalError != res.TotalError || !got.Assignment.Equal(res.Assignment) {
		t.Fatal("FinishContext with StoreCandidates diverged from GenerateContext")
	}
}
