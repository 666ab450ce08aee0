package dbmosaic

import (
	"testing"

	"repro/internal/cuda"
	"repro/internal/hist"
	"repro/internal/imgutil"
	"repro/internal/metric"
	"repro/internal/synth"
	"repro/internal/tile"
	"repro/internal/tilestore"
)

func TestSelfDatabaseGivesZeroError(t *testing.T) {
	// A database containing the target's own tiles reproduces it exactly.
	target := synth.MustGenerate(synth.Lena, 64)
	db, err := NewDatabase(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddImage(target); err != nil {
		t.Fatal(err)
	}
	res, err := db.Generate(target, metric.L1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalError != 0 {
		t.Errorf("self-database error %d", res.TotalError)
	}
	if !res.Mosaic.Equal(target) {
		t.Error("self-database mosaic differs from target")
	}
}

func TestLargerDatabaseNeverWorse(t *testing.T) {
	// Adding tiles can only improve (or keep) every per-position minimum.
	target := synth.MustGenerate(synth.Sailboat, 64)
	db, err := NewDatabase(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddImage(synth.MustGenerate(synth.Plasma, 64)); err != nil {
		t.Fatal(err)
	}
	small, err := db.Generate(target, metric.L1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddImage(synth.MustGenerate(synth.Lena, 64)); err != nil {
		t.Fatal(err)
	}
	if err := db.AddImage(synth.MustGenerate(synth.Peppers, 64)); err != nil {
		t.Fatal(err)
	}
	large, err := db.Generate(target, metric.L1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if large.TotalError > small.TotalError {
		t.Errorf("larger database got worse: %d > %d", large.TotalError, small.TotalError)
	}
}

func TestChoicesAreNearestNeighbours(t *testing.T) {
	target := synth.MustGenerate(synth.Baboon, 32)
	db, _ := NewDatabase(8)
	if err := db.AddImage(synth.MustGenerate(synth.Lena, 32)); err != nil {
		t.Fatal(err)
	}
	res, err := db.Generate(target, metric.L1, nil)
	if err != nil {
		t.Fatal(err)
	}
	grid, _ := tile.NewGrid(target, 8)
	for v, c := range res.Choice {
		chosen := metric.TileError(db.Tile(c).Pix, grid.Tile(v).Pix, metric.L1)
		for i := 0; i < db.Len(); i++ {
			if alt := metric.TileError(db.Tile(i).Pix, grid.Tile(v).Pix, metric.L1); alt < chosen {
				t.Fatalf("position %d: chose tile %d (err %d) but tile %d has %d", v, c, chosen, i, alt)
			}
		}
	}
}

func TestSerialAndDeviceAgree(t *testing.T) {
	target := synth.MustGenerate(synth.Peppers, 64)
	db, _ := NewDatabase(8)
	if err := db.AddImage(synth.MustGenerate(synth.Barbara, 64)); err != nil {
		t.Fatal(err)
	}
	serial, err := db.Generate(target, metric.L1, nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := db.Generate(target, metric.L1, cuda.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if serial.TotalError != parallel.TotalError || !serial.Mosaic.Equal(parallel.Mosaic) {
		t.Error("device search disagrees with serial search")
	}
}

func TestDatabaseBeatsRearrangementWithRichDatabase(t *testing.T) {
	// The paper's positioning: with repetition allowed and a rich database
	// the classical method reaches lower error than any bijective
	// rearrangement of a single image's tiles.
	target := synth.MustGenerate(synth.Sailboat, 64)
	input := synth.MustGenerate(synth.Lena, 64)
	matched, err := hist.Match(input, target)
	if err != nil {
		t.Fatal(err)
	}

	// Rearrangement error: best possible (exact matching) on the single
	// input — compute via the identity that DB search with bijection would
	// equal LAP; use a local search bound instead: DB with only the input's
	// tiles but repetition allowed is already ≤ any bijection.
	db, _ := NewDatabase(8)
	if err := db.AddImage(matched); err != nil {
		t.Fatal(err)
	}
	withRepetition, err := db.Generate(target, metric.L1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Any bijective rearrangement's error is ≥ the per-position minima sum.
	inStore, _ := tilestore.FromImage(matched, 8)
	tgtStore, _ := tilestore.FromImage(target, 8)
	costs, err := metric.BuildStoreBlocked(inStore, tgtStore, metric.L1)
	if err != nil {
		t.Fatal(err)
	}
	var lowerBound int64
	for v := 0; v < costs.S; v++ {
		best := costs.At(0, v)
		for u := 1; u < costs.S; u++ {
			if c := costs.At(u, v); c < best {
				best = c
			}
		}
		lowerBound += int64(best)
	}
	if withRepetition.TotalError != lowerBound {
		t.Errorf("repetition-allowed error %d != per-position minima %d", withRepetition.TotalError, lowerBound)
	}
}

func TestValidation(t *testing.T) {
	if _, err := NewDatabase(0); err == nil {
		t.Error("accepted zero tile size")
	}
	db, _ := NewDatabase(8)
	if err := db.AddTile(imgutil.NewGray(4, 4)); err == nil {
		t.Error("accepted wrong-size tile")
	}
	if err := db.AddImage(imgutil.NewGray(12, 12)); err == nil {
		t.Error("accepted indivisible image")
	}
	target := synth.MustGenerate(synth.Lena, 64)
	if _, err := db.Generate(target, metric.L1, nil); err == nil {
		t.Error("accepted empty database")
	}
	if err := db.AddTile(imgutil.NewGray(8, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Generate(target, metric.Metric(9), nil); err == nil {
		t.Error("accepted invalid metric")
	}
	if _, err := db.Generate(imgutil.NewGray(10, 10), metric.L1, nil); err == nil {
		t.Error("accepted indivisible target")
	}
	if db.Len() != 1 {
		t.Errorf("Len = %d", db.Len())
	}
	if got := db.Tile(0); got.W != 8 {
		t.Error("Tile returned wrong geometry")
	}
}

func TestTilePanicsOutOfRange(t *testing.T) {
	db, _ := NewDatabase(4)
	defer func() {
		if recover() == nil {
			t.Error("Tile out of range did not panic")
		}
	}()
	db.Tile(0)
}

func BenchmarkGenerate1024Tiles(b *testing.B) {
	target := synth.MustGenerate(synth.Sailboat, 256)
	db, _ := NewDatabase(16)
	for _, s := range []synth.Scene{synth.Lena, synth.Peppers, synth.Barbara, synth.Plasma} {
		if err := db.AddImage(synth.MustGenerate(s, 256)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Generate(target, metric.L1, nil); err != nil {
			b.Fatal(err)
		}
	}
}
