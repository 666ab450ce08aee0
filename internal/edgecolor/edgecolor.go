// Package edgecolor constructs proper edge colorings of complete graphs.
//
// The parallel approximation algorithm (paper §IV-B) swaps many tile pairs
// concurrently; two pairs may run together only if they share no tile. The
// paper invokes the classical result (its Theorem 1) that K_n is
// (n−1)-edge-colorable for even n and n-edge-colorable for odd n, and
// executes one color class per kernel launch. This package produces that
// coloring with the rotational ("circle method") construction and exactly
// reproduces the 15-coloring of K₁₆ listed in the paper: class i contains
// the pairs {u, v} ⊆ {1..n−1} with u + v ≡ 2i+1 (mod n−1), plus the pair
// (w, n) for the unique w with 2w ≡ 2i+1 (mod n−1).
package edgecolor

import (
	"errors"
	"fmt"
)

// ErrImproper reports a coloring that fails verification.
var ErrImproper = errors.New("edgecolor: improper coloring")

// Pair is an unordered vertex pair stored with U < V.
type Pair struct {
	U, V int
}

// Coloring is a partition of the edges of K_n into color classes, each class
// a set of pairwise-disjoint pairs (a partial matching of K_n).
type Coloring struct {
	N       int
	Classes [][]Pair
}

// Complete returns the circle-method edge coloring of K_n with vertices
// 0..n−1: n−1 classes for even n, n classes for odd n (matching the paper's
// Theorem 1). Classes are emitted in the paper's order, with the pairs of a
// class sorted by first vertex. n = 0 or 1 yields zero classes. All classes
// share one backing array of n(n−1)/2 pairs.
func Complete(n int) *Coloring {
	if n < 0 {
		panic(fmt.Sprintf("edgecolor: Complete(%d)", n))
	}
	c := &Coloring{N: n}
	if n < 2 {
		return c
	}
	// Even n: vertices 0..m−1 on a circle (m = n−1, odd) plus the fixed
	// vertex n−1. Paper class i (1-based, 1..m) holds 1-based pairs with
	// u+v ≡ 2i+1 (mod m); in 0-based labels the sum shifts by 2. Odd n has
	// no fixed vertex and n classes (m = n); the vertex with 2w ≡ σ (mod n)
	// sits the round out.
	m, hasFixed := n-1, true
	if n%2 == 1 {
		m, hasFixed = n, false
	}
	backing := make([]Pair, 0, n*(n-1)/2)
	c.Classes = make([][]Pair, m)
	for i := 1; i <= m; i++ {
		lo := len(backing)
		backing = appendClass(backing, n, m, (2*i-1)%m, hasFixed)
		c.Classes[i-1] = backing[lo:len(backing):len(backing)]
	}
	return c
}

// appendClass appends one color class to out: all pairs {u, v} of circle
// vertices 0..m−1 with u+v ≡ sigma (mod m); the self-paired vertex
// (2w ≡ sigma) is matched with the fixed vertex n−1 when one exists (even
// n), and rests otherwise (odd n). Pairs come out in ascending u, because
// the partner v = sigma−u (mod m) is stepped down alongside u.
func appendClass(out []Pair, n, m, sigma int, hasFixed bool) []Pair {
	v := sigma
	for u := 0; u < m; u++ {
		switch {
		case u < v:
			out = append(out, Pair{U: u, V: v})
		case u == v && hasFixed:
			out = append(out, Pair{U: u, V: n - 1})
		}
		if v--; v < 0 {
			v = m - 1
		}
	}
	return out
}

// NumColors returns the number of color classes.
func (c *Coloring) NumColors() int { return len(c.Classes) }

// Edges returns the total number of edges across all classes.
func (c *Coloring) Edges() int {
	n := 0
	for _, cl := range c.Classes {
		n += len(cl)
	}
	return n
}

// Verify checks that c is a proper edge coloring of K_n: every pair is
// normalised and in range, no vertex appears twice within a class, every
// edge of K_n appears exactly once overall, and the class count matches
// Theorem 1 (n−1 for even n ≥ 2, n for odd n ≥ 3).
func (c *Coloring) Verify() error {
	want := 0
	switch {
	case c.N >= 2 && c.N%2 == 0:
		want = c.N - 1
	case c.N >= 3:
		want = c.N
	}
	if len(c.Classes) != want {
		return fmt.Errorf("edgecolor: %d classes for n=%d, want %d: %w", len(c.Classes), c.N, want, ErrImproper)
	}
	seen := make(map[Pair]int)
	for ci, cl := range c.Classes {
		used := make(map[int]bool, 2*len(cl))
		for _, p := range cl {
			if p.U < 0 || p.V >= c.N || p.U >= p.V {
				return fmt.Errorf("edgecolor: class %d has invalid pair (%d, %d): %w", ci, p.U, p.V, ErrImproper)
			}
			if used[p.U] || used[p.V] {
				return fmt.Errorf("edgecolor: class %d reuses a vertex in pair (%d, %d): %w", ci, p.U, p.V, ErrImproper)
			}
			used[p.U], used[p.V] = true, true
			if prev, dup := seen[p]; dup {
				return fmt.Errorf("edgecolor: edge (%d, %d) in classes %d and %d: %w", p.U, p.V, prev, ci, ErrImproper)
			}
			seen[p] = ci
		}
	}
	if wantEdges := c.N * (c.N - 1) / 2; len(seen) != wantEdges {
		return fmt.Errorf("edgecolor: %d distinct edges, want %d: %w", len(seen), wantEdges, ErrImproper)
	}
	return nil
}
