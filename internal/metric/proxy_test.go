package metric

import (
	"testing"

	"repro/internal/imgutil"
	"repro/internal/perm"
	"repro/internal/tile"
)

func TestProxyFullResolutionIsExact(t *testing.T) {
	// d = M means no downsampling: the proxy must equal the exact matrix.
	in, tg := grids(t, 32, 8)
	inS, tgS := storesOf(in, tg)
	for _, met := range []Metric{L1, L2} {
		proxy, err := BuildProxy(inS, tgS, met, in.M)
		if err != nil {
			t.Fatal(err)
		}
		if !proxy.Equal(oracleMatrix(in, tg, met)) {
			t.Errorf("%v: full-resolution proxy differs from the exact matrix", met)
		}
	}
}

func TestProxyMatchesOracle(t *testing.T) {
	in, tg := grids(t, 64, 8)
	inS, tgS := storesOf(in, tg)
	for _, met := range []Metric{L1, L2} {
		for _, d := range []int{1, 2, 4} {
			proxy, err := BuildProxy(inS, tgS, met, d)
			if err != nil {
				t.Fatal(err)
			}
			if !proxy.Equal(oracleProxy(in, tg, met, d)) {
				t.Errorf("%v d=%d: proxy matrix differs from the oracle", met, d)
			}
		}
	}
}

func TestProxyValidation(t *testing.T) {
	inS, tgS := storesOf(grids(t, 32, 8))
	for _, d := range []int{0, -1, 3, 16} { // 3 does not divide 8; 16 > 8
		if _, err := BuildProxy(inS, tgS, L1, d); err == nil {
			t.Errorf("accepted proxy resolution %d for tile side 8", d)
		}
	}
	if _, err := BuildProxy(inS, tgS, Metric(9), 4); err == nil {
		t.Error("accepted invalid metric")
	}
}

func TestProxyOnConstantTilesIsExact(t *testing.T) {
	// Tiles that are each one flat intensity are perfectly represented at
	// any resolution, so the scaled proxy equals the exact cost.
	mk := func(seed uint64) *tile.Grid {
		img := imgutil.NewGray(32, 32)
		g, err := tile.NewGrid(img, 8)
		if err != nil {
			t.Fatal(err)
		}
		s := seed | 1
		for i := 0; i < g.S(); i++ {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			v := uint8(s >> 32)
			for r := 0; r < g.M; r++ {
				row := g.Row(i, r)
				for x := range row {
					row[x] = v
				}
			}
		}
		return g
	}
	inS, tgS := storesOf(mk(5), mk(9))
	exact, err := BuildStoreBlocked(inS, tgS, L1)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []int{1, 2, 4} {
		proxy, err := BuildProxy(inS, tgS, L1, d)
		if err != nil {
			t.Fatal(err)
		}
		if !proxy.Equal(exact) {
			t.Errorf("d=%d: proxy differs on piecewise-constant tiles", d)
		}
	}
}

func TestProxyRankingCorrelatesWithExact(t *testing.T) {
	// The proxy's purpose is preserving the cost ordering. Over random pair
	// comparisons, proxy and exact must agree far above chance.
	inS, tgS := storesOf(grids(t, 64, 8))
	exact, err := BuildStoreBlocked(inS, tgS, L1)
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := BuildProxy(inS, tgS, L1, 4)
	if err != nil {
		t.Fatal(err)
	}
	n := exact.S * exact.S
	agree, total := 0, 0
	state := uint64(12345)
	next := func() int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(n))
	}
	for i := 0; i < 5000; i++ {
		a, b := next(), next()
		if exact.W[a] == exact.W[b] {
			continue
		}
		total++
		if (exact.W[a] < exact.W[b]) == (proxy.W[a] < proxy.W[b]) {
			agree++
		}
	}
	if total == 0 {
		t.Fatal("degenerate sample")
	}
	if rate := float64(agree) / float64(total); rate < 0.85 {
		t.Errorf("proxy ranking agreement only %.2f", rate)
	}
}

func TestProxyQualityGapIsBounded(t *testing.T) {
	// Solving Step 3 on the proxy and evaluating on the exact matrix must
	// stay within a modest factor of solving on the exact matrix directly —
	// the ablation claim from DESIGN.md.
	inS, tgS := storesOf(grids(t, 64, 8))
	exact, err := BuildStoreBlocked(inS, tgS, L1)
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := BuildProxy(inS, tgS, L1, 4)
	if err != nil {
		t.Fatal(err)
	}
	pExact := greedyLocal(exact)
	pProxy := greedyLocal(proxy)
	errExact := exact.Total(pExact)
	errProxy := exact.Total(pProxy) // proxy decision, exact evaluation
	if errProxy < errExact {
		// Possible but rare; the important bound is the other direction.
		return
	}
	if float64(errProxy) > 1.35*float64(errExact) {
		t.Errorf("proxy-guided error %d more than 35%% above exact-guided %d", errProxy, errExact)
	}
}

// greedyLocal runs a simple swap sweep to convergence (a local copy to avoid
// importing localsearch and creating an import cycle in tests).
func greedyLocal(m *Matrix) perm.Perm {
	s := m.S
	p := perm.Identity(s)
	for {
		swapped := false
		for x := 0; x < s; x++ {
			for y := x + 1; y < s; y++ {
				keep := int64(m.W[p[x]*s+x]) + int64(m.W[p[y]*s+y])
				swp := int64(m.W[p[y]*s+x]) + int64(m.W[p[x]*s+y])
				if keep > swp {
					p[x], p[y] = p[y], p[x]
					swapped = true
				}
			}
		}
		if !swapped {
			return p
		}
	}
}

func BenchmarkBuildProxyD4S1024(b *testing.B) {
	inS, tgS := storesOf(grids(b, 512, 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildProxy(inS, tgS, L1, 4); err != nil {
			b.Fatal(err)
		}
	}
}
