package edgecolor

import (
	"sort"
	"testing"
	"testing/quick"
)

// paperK16 is the 15-edge-coloring of K₁₆ printed in §IV-B of the paper
// (1-based vertices), transcribed verbatim. The construction must reproduce
// it exactly — classes in order, pairs in order.
var paperK16 = [][][2]int{
	{{1, 2}, {3, 15}, {4, 14}, {5, 13}, {6, 12}, {7, 11}, {8, 10}, {9, 16}},
	{{1, 4}, {2, 3}, {5, 15}, {6, 14}, {7, 13}, {8, 12}, {9, 11}, {10, 16}},
	{{1, 6}, {2, 5}, {3, 4}, {7, 15}, {8, 14}, {9, 13}, {10, 12}, {11, 16}},
	{{1, 8}, {2, 7}, {3, 6}, {4, 5}, {9, 15}, {10, 14}, {11, 13}, {12, 16}},
	{{1, 10}, {2, 9}, {3, 8}, {4, 7}, {5, 6}, {11, 15}, {12, 14}, {13, 16}},
	{{1, 12}, {2, 11}, {3, 10}, {4, 9}, {5, 8}, {6, 7}, {13, 15}, {14, 16}},
	{{1, 14}, {2, 13}, {3, 12}, {4, 11}, {5, 10}, {6, 9}, {7, 8}, {15, 16}},
	{{1, 16}, {2, 15}, {3, 14}, {4, 13}, {5, 12}, {6, 11}, {7, 10}, {8, 9}},
	{{1, 3}, {2, 16}, {4, 15}, {5, 14}, {6, 13}, {7, 12}, {8, 11}, {9, 10}},
	{{1, 5}, {2, 4}, {3, 16}, {6, 15}, {7, 14}, {8, 13}, {9, 12}, {10, 11}},
	{{1, 7}, {2, 6}, {3, 5}, {4, 16}, {8, 15}, {9, 14}, {10, 13}, {11, 12}},
	{{1, 9}, {2, 8}, {3, 7}, {4, 6}, {5, 16}, {10, 15}, {11, 14}, {12, 13}},
	{{1, 11}, {2, 10}, {3, 9}, {4, 8}, {5, 7}, {6, 16}, {12, 15}, {13, 14}},
	{{1, 13}, {2, 12}, {3, 11}, {4, 10}, {5, 9}, {6, 8}, {7, 16}, {14, 15}},
	{{1, 15}, {2, 14}, {3, 13}, {4, 12}, {5, 11}, {6, 10}, {7, 9}, {8, 16}},
}

func TestK16MatchesPaperListing(t *testing.T) {
	c := Complete(16)
	if got, want := len(c.Classes), len(paperK16); got != want {
		t.Fatalf("K16: %d classes, want %d", got, want)
	}
	for ci, class := range c.Classes {
		want := paperK16[ci]
		if len(class) != len(want) {
			t.Fatalf("class %d: %d pairs, want %d", ci+1, len(class), len(want))
		}
		for pi, p := range class {
			// Paper vertices are 1-based.
			if p.U+1 != want[pi][0] || p.V+1 != want[pi][1] {
				t.Errorf("class P%d pair %d: got (%d, %d), want (%d, %d)",
					ci+1, pi, p.U+1, p.V+1, want[pi][0], want[pi][1])
			}
		}
	}
}

// naiveComplete is the circle-method construction written directly from
// its definition: class i holds every pair with u+v ≡ 2i−1 (mod m), each
// partner found with two modulo operations, sorted by first vertex.
func naiveComplete(n int) [][]Pair {
	if n < 2 {
		return nil
	}
	m, hasFixed := n-1, true
	if n%2 == 1 {
		m, hasFixed = n, false
	}
	var classes [][]Pair
	for i := 1; i <= m; i++ {
		sigma := ((2*i-1)%m + m) % m
		var class []Pair
		for u := 0; u < m; u++ {
			v := ((sigma-u)%m + m) % m
			switch {
			case u < v:
				class = append(class, Pair{U: u, V: v})
			case u == v && hasFixed:
				class = append(class, Pair{U: u, V: n - 1})
			}
		}
		sort.Slice(class, func(a, b int) bool { return class[a].U < class[b].U })
		classes = append(classes, class)
	}
	return classes
}

func TestCompleteMatchesNaiveReference(t *testing.T) {
	sizes := []int{1024}
	for n := 0; n <= 40; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		got, want := Complete(n).Classes, naiveComplete(n)
		if len(got) != len(want) {
			t.Fatalf("n=%d: %d classes, want %d", n, len(got), len(want))
		}
		for ci := range want {
			if len(got[ci]) != len(want[ci]) {
				t.Fatalf("n=%d class %d: %d pairs, want %d", n, ci, len(got[ci]), len(want[ci]))
			}
			for pi := range want[ci] {
				if got[ci][pi] != want[ci][pi] {
					t.Fatalf("n=%d class %d pair %d: got %+v, want %+v", n, ci, pi, got[ci][pi], want[ci][pi])
				}
			}
		}
	}
}

func TestCompleteVerifiesForSmallN(t *testing.T) {
	for n := 0; n <= 64; n++ {
		c := Complete(n)
		if err := c.Verify(); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestCompleteVerifiesForPaperSizes(t *testing.T) {
	// The tile counts of the paper's evaluation (16², 32², 64²).
	sizes := []int{256, 1024, 4096}
	if testing.Short() {
		sizes = sizes[:2]
	}
	for _, n := range sizes {
		c := Complete(n)
		if err := c.Verify(); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
		if got, want := c.NumColors(), n-1; got != want {
			t.Errorf("n=%d: %d colors, want %d", n, got, want)
		}
	}
}

func TestColorCountMatchesTheorem1(t *testing.T) {
	// Theorem 1: K_n is (n−1)-edge-colorable for even n, n for odd n.
	for n := 2; n <= 60; n++ {
		c := Complete(n)
		want := n
		if n%2 == 0 {
			want = n - 1
		}
		if got := c.NumColors(); got != want {
			t.Errorf("n=%d: %d colors, want %d", n, got, want)
		}
	}
}

func TestClassSizes(t *testing.T) {
	// Even n: every class is a perfect matching (n/2 pairs).
	// Odd n: every class leaves exactly one vertex out ((n−1)/2 pairs).
	for n := 3; n <= 41; n++ {
		c := Complete(n)
		want := n / 2
		for ci, class := range c.Classes {
			if len(class) != want {
				t.Errorf("n=%d class %d: %d pairs, want %d", n, ci, len(class), want)
			}
		}
	}
}

func TestEdgesCountsAllEdges(t *testing.T) {
	for n := 0; n <= 50; n++ {
		c := Complete(n)
		if got, want := c.Edges(), n*(n-1)/2; got != want {
			t.Errorf("n=%d: %d edges, want %d", n, got, want)
		}
	}
}

func TestProperColoringProperty(t *testing.T) {
	// Property: Complete(n) verifies for arbitrary n. quick feeds byte-sized
	// n so sizes stay tractable while covering odd/even/tiny cases.
	f := func(raw uint8) bool {
		n := int(raw)%150 + 2
		return Complete(n).Verify() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVerifyRejectsDuplicateEdge(t *testing.T) {
	c := Complete(8)
	c.Classes[1][0] = c.Classes[0][0]
	if err := c.Verify(); err == nil {
		t.Error("Verify accepted a coloring with a duplicated edge")
	}
}

func TestVerifyRejectsSharedVertexInClass(t *testing.T) {
	c := Complete(8)
	// Force two pairs of class 0 to share a vertex.
	c.Classes[0][1] = Pair{U: c.Classes[0][0].U, V: 7}
	if err := c.Verify(); err == nil {
		t.Error("Verify accepted a class with a repeated vertex")
	}
}

func TestVerifyRejectsWrongClassCount(t *testing.T) {
	c := Complete(8)
	c.Classes = c.Classes[:len(c.Classes)-1]
	if err := c.Verify(); err == nil {
		t.Error("Verify accepted a coloring missing a class")
	}
}

func TestVerifyRejectsUnnormalisedPair(t *testing.T) {
	c := Complete(8)
	p := c.Classes[0][0]
	c.Classes[0][0] = Pair{U: p.V, V: p.U} // reversed: U > V
	if err := c.Verify(); err == nil {
		t.Error("Verify accepted a pair with U > V")
	}
}

func TestVerifyRejectsOutOfRangeVertex(t *testing.T) {
	c := Complete(8)
	c.Classes[0][0] = Pair{U: 0, V: 8}
	if err := c.Verify(); err == nil {
		t.Error("Verify accepted a vertex ≥ n")
	}
}

func TestTinyGraphs(t *testing.T) {
	if c := Complete(0); c.NumColors() != 0 {
		t.Errorf("K0: %d classes, want 0", c.NumColors())
	}
	if c := Complete(1); c.NumColors() != 0 {
		t.Errorf("K1: %d classes, want 0", c.NumColors())
	}
	c := Complete(2)
	if c.NumColors() != 1 || len(c.Classes[0]) != 1 || c.Classes[0][0] != (Pair{U: 0, V: 1}) {
		t.Errorf("K2: got %+v", c.Classes)
	}
}

func TestCompletePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Complete(-1) did not panic")
		}
	}()
	Complete(-1)
}

func BenchmarkComplete1024(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Complete(1024)
	}
}

func BenchmarkComplete4096(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Complete(4096)
	}
}

func BenchmarkVerify1024(b *testing.B) {
	c := Complete(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}
