package localsearch

import (
	"testing"

	"repro/internal/metric"
	"repro/internal/perm"
	"repro/internal/synth"
	"repro/internal/tilestore"
)

func sceneStores(t *testing.T, n, m int) (*tilestore.Store, *tilestore.Store) {
	t.Helper()
	in, err := tilestore.FromImage(synth.MustGenerate(synth.Lena, n), m)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := tilestore.FromImage(synth.MustGenerate(synth.Sailboat, n), m)
	if err != nil {
		t.Fatal(err)
	}
	return in, tgt
}

// TestStoreCandidatesShape: K lists per position, valid tile indices, K
// clamped to S, zero K yields empty lists.
func TestStoreCandidatesShape(t *testing.T) {
	in, tgt := sceneStores(t, 128, 16)
	s := tgt.S()
	for _, k := range []int{1, 8, s, s + 50} {
		lists := StoreCandidates(in, tgt, k)
		if len(lists) != s {
			t.Fatalf("k=%d: %d lists for S=%d", k, len(lists), s)
		}
		wantK := k
		if wantK > s {
			wantK = s
		}
		for x, l := range lists {
			if len(l) != wantK {
				t.Fatalf("k=%d: position %d has %d candidates, want %d", k, x, len(l), wantK)
			}
			for _, u := range l {
				if u < 0 || int(u) >= s {
					t.Fatalf("position %d: candidate %d out of range", x, u)
				}
			}
		}
	}
	for _, l := range StoreCandidates(in, tgt, 0) {
		if len(l) != 0 {
			t.Fatal("k=0 produced candidates")
		}
	}
}

// TestStoreCandidatesAreThumbNearest: each list is exactly the K tiles with
// the smallest thumbnail L1 distance (up to ties at the boundary).
func TestStoreCandidatesAreThumbNearest(t *testing.T) {
	in, tgt := sceneStores(t, 96, 12)
	s := tgt.S()
	k := 6
	lists := StoreCandidates(in, tgt, k)
	thumbDist := func(u, x int) int32 {
		var d int32
		tx := tgt.TileThumb(x)
		for i, p := range in.TileThumb(u) {
			diff := int32(p) - int32(tx[i])
			if diff < 0 {
				diff = -diff
			}
			d += diff
		}
		return d
	}
	for x := 0; x < s; x++ {
		worst := thumbDist(int(lists[x][k-1]), x)
		chosen := make(map[int32]bool, k)
		for _, u := range lists[x] {
			chosen[u] = true
		}
		for u := 0; u < s; u++ {
			if !chosen[int32(u)] && thumbDist(u, x) < worst {
				t.Fatalf("position %d: tile %d closer than chosen worst", x, u)
			}
		}
	}
}

// TestCandidateListsWarmReachesPlateau: driving the dirty search with
// store-derived lists still certifies a swap-local optimum of the true
// matrix, and invalid lists are rejected up front.
func TestCandidateListsWarmReachesPlateau(t *testing.T) {
	in, tgt := sceneStores(t, 128, 16)
	m, err := metric.BuildStoreBlocked(in, tgt, metric.L1)
	if err != nil {
		t.Fatal(err)
	}
	lists := StoreCandidates(in, tgt, 8)
	p, st, err := SerialDirty(m, perm.Identity(m.S), Options{CandidateLists: lists})
	if err != nil {
		t.Fatal(err)
	}
	if !swapLocalOptimal(m, p) {
		t.Fatal("store-candidate-warmed result not swap-local optimal")
	}
	if st.Passes < 1 {
		t.Fatalf("degenerate stats %+v", st)
	}

	if _, _, err := SerialDirty(m, perm.Identity(m.S), Options{CandidateLists: lists[:3]}); err == nil {
		t.Fatal("wrong-length candidate lists accepted")
	}
	bad := StoreCandidates(in, tgt, 4)
	bad[0][0] = int32(m.S)
	if _, _, err := SerialDirty(m, perm.Identity(m.S), Options{CandidateLists: bad}); err == nil {
		t.Fatal("out-of-range candidate accepted")
	}
}
