package assign

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/hist"
	"repro/internal/metric"
	"repro/internal/synth"
	"repro/internal/tilestore"
)

// permHash is the SHA-256 of a permutation's entries as little-endian
// uint32s.
func permHash(p []int) string {
	h := sha256.New()
	var b [4]byte
	for _, v := range p {
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// tieMatrix builds an n×n matrix with costs in [0, 4), so most columns
// have several rows at their minimum and JV's tie-breaking decides the
// answer.
func tieMatrix(n int, seed int64) []Cost {
	rng := rand.New(rand.NewSource(seed))
	w := make([]Cost, n*n)
	for i := range w {
		w[i] = Cost(rng.Intn(4))
	}
	return w
}

// TestJVPermutationGolden pins the exact permutation JV returns (not just
// its cost) on tie-heavy matrices and on the pipeline's Lena→Peppers matrix
// (histogram-matched input) at S = 64²: among the many optimal assignments, which one JV picks depends
// on the order every pass breaks ties in.
func TestJVPermutationGolden(t *testing.T) {
	target := synth.MustGenerate(synth.Peppers, 512)
	input, err := hist.Match(synth.MustGenerate(synth.Lena, 512), target)
	if err != nil {
		t.Fatal(err)
	}
	in, err := tilestore.FromImage(input, 8)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := tilestore.FromImage(target, 8)
	if err != nil {
		t.Fatal(err)
	}
	scene, err := metric.BuildStoreBlocked(in, tg, metric.L1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		n    int
		w    []Cost
		want string
	}{
		{"ties-S80", 80, tieMatrix(80, 5), "11844e6790980d915cbe2ce39bcf439a1c528c2f3645b6a2b4306a7f0e3e76d4"},
		{"ties-S1024", 1024, tieMatrix(1024, 7), "2a9a165145f7d59f2b7b6d3b3c57d1effad630bfaa4c644c756234e2f6824201"},
		{"lena-peppers-S4096", scene.S, scene.W, "04f91723e41621da5f5e29d47f64e45ec6b5e7dd0a4e64851bb13642d5a8b1bf"},
	} {
		p, err := JV(c.n, c.w)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := permHash(p); got != c.want {
			t.Errorf("%s: JV permutation hash %s, want %s", c.name, got, c.want)
		}
	}
}
