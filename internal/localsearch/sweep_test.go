package localsearch

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cuda"
	"repro/internal/edgecolor"
	"repro/internal/metric"
	"repro/internal/perm"
	"repro/internal/retry"
)

// The oracles below are the searches written with the four-read swap test
// straight from Algorithm 1,
//
//	keep = W[p[x]][x] + W[p[y]][y],  swap = W[p[y]][x] + W[p[x]][y],
//
// reading every entry from the row-major matrix. The searches proper read
// the keep side from the sweep's diagonal and column entries from its
// column-major copy; TestSweepMatchesFourReadOracle asserts that nothing
// observable changes.

// sample is one Progress call: a sweep's (round, cost, swaps) or an
// annealing epoch's (round, cost, temperature).
type sample struct {
	round       int
	cost, swaps int64
	temperature float64
}

// oracleRun is an oracle's result: the assignment, the Passes / Swaps /
// Attempts stats, and the Progress samples in call order.
type oracleRun struct {
	p       perm.Perm
	st      Stats
	samples []sample
}

// fourRead is the swap test of Algorithm 1 on the row-major matrix.
func fourRead(m *metric.Matrix, p perm.Perm, x, y int) (keep, swap int64) {
	s, w := m.S, m.W
	px, py := p[x], p[y]
	return int64(w[px*s+x]) + int64(w[py*s+y]), int64(w[py*s+x]) + int64(w[px*s+y])
}

func oracleSerial(m *metric.Matrix, start perm.Perm) oracleRun {
	s := m.S
	r := oracleRun{p: start.Clone()}
	cost := m.Total(r.p)
	for {
		swapped := false
		for x := 0; x < s; x++ {
			for y := x + 1; y < s; y++ {
				if keep, swap := fourRead(m, r.p, x, y); keep > swap {
					r.p[x], r.p[y] = r.p[y], r.p[x]
					swapped = true
					r.st.Swaps++
					cost += swap - keep
				}
			}
		}
		r.st.Passes++
		r.st.Attempts += int64(s) * int64(s-1) / 2
		r.samples = append(r.samples, sample{round: r.st.Passes, cost: cost, swaps: r.st.Swaps})
		if !swapped {
			return r
		}
	}
}

func oracleDirty(m *metric.Matrix, start perm.Perm, candidates int) oracleRun {
	s := m.S
	r := oracleRun{p: start.Clone()}
	p := r.p
	cost := m.Total(p)
	d := newDirtyState(s)
	progress := func() {
		r.samples = append(r.samples, sample{round: r.st.Passes, cost: cost, swaps: r.st.Swaps})
	}
	if candidates > 0 {
		cands := make([][]int32, s)
		for x := range cands {
			cands[x] = topKColumn(m, x, candidates)
		}
		pos := make([]int32, s)
		for v, u := range p {
			pos[u] = int32(v)
		}
		for swapped := true; swapped; {
			swapped = false
			for x := 0; x < s; x++ {
				for _, u := range cands[x] {
					y := int(pos[u])
					if y == x {
						continue
					}
					r.st.Attempts++
					if keep, swap := fourRead(m, p, x, y); keep > swap {
						px, py := p[x], p[y]
						p[x], p[y] = py, px
						pos[py], pos[px] = int32(x), int32(y)
						swapped = true
						r.st.Swaps++
						d.moved(min(x, y), max(x, y))
						cost += swap - keep
					}
				}
			}
			r.st.Passes++
			progress()
		}
	}
	for {
		swapped := false
		for x := 0; x < s; x++ {
			for y := x + 1; y < s; y++ {
				if sc := d.lastScored[x*s+y]; sc >= d.lastMoved[x] && sc >= d.lastMoved[y] {
					continue
				}
				r.st.Attempts++
				if keep, swap := fourRead(m, p, x, y); keep > swap {
					p[x], p[y] = p[y], p[x]
					swapped = true
					r.st.Swaps++
					d.moved(x, y)
					cost += swap - keep
				} else {
					d.lastScored[x*s+y] = d.clock
				}
			}
		}
		r.st.Passes++
		progress()
		if !swapped {
			return r
		}
	}
}

func oracleBestImprovement(m *metric.Matrix, start perm.Perm, maxPasses int) oracleRun {
	s := m.S
	r := oracleRun{p: start.Clone()}
	for {
		best := int64(0)
		bx, by := -1, -1
		for x := 0; x < s; x++ {
			for y := x + 1; y < s; y++ {
				if keep, swap := fourRead(m, r.p, x, y); swap-keep < best {
					best, bx, by = swap-keep, x, y
				}
			}
		}
		r.st.Passes++
		r.st.Attempts += int64(s) * int64(s-1) / 2
		if bx < 0 {
			return r
		}
		r.p[bx], r.p[by] = r.p[by], r.p[bx]
		r.st.Swaps++
		if maxPasses > 0 && r.st.Passes >= maxPasses {
			return r
		}
	}
}

// oracleParallel sweeps the color classes in order, one pair after another:
// the pairs of a class are vertex-disjoint, so this is Algorithm 2's result.
// It tests every pair, but counts a test as an attempt only when its outcome
// is not known beforehand. A test reads nothing but the tiles p[U], p[V] at
// the pair, so failed[U*S+V] records them, packed, at the pair's last test
// if that test failed, and a swap at U or V forgets every record of a pair
// through U or V. A test whose tiles match a record is known to fail. (A
// record is not kept across a tile that leaves a position and comes back:
// the search keeps O(S) state, which cannot see that.) maxPasses caps the
// sweeps as Options.MaxPasses does. stopAfter > 0 stops the run after that
// many classes, as an anytime cancellation polled before every class does.
func oracleParallel(m *metric.Matrix, start perm.Perm, coloring *edgecolor.Coloring, maxPasses, stopAfter int) oracleRun {
	s := m.S
	r := oracleRun{p: start.Clone()}
	p := r.p
	cost := m.Total(p)
	failed := make([]int64, s*s)
	classesRun := 0
	for {
		swapped := false
		for _, class := range coloring.Classes {
			if classesRun == stopAfter && stopAfter > 0 {
				r.st.Partial, r.st.Cost = true, cost
				return r
			}
			classesRun++
			for _, pr := range class {
				at := pr.U*s + pr.V
				tiles := int64(p[pr.U])*int64(s) + int64(p[pr.V]) + 1
				known := failed[at] == tiles
				if !known {
					r.st.Attempts++
				}
				keep, swap := fourRead(m, p, pr.U, pr.V)
				if keep <= swap {
					failed[at] = tiles
					continue
				}
				if known {
					panic(fmt.Sprintf("oracleParallel: pair (%d, %d) swapped on tiles that failed before", pr.U, pr.V))
				}
				p[pr.U], p[pr.V] = p[pr.V], p[pr.U]
				swapped = true
				r.st.Swaps++
				cost += swap - keep
				for w := 0; w < s; w++ {
					failed[pr.U*s+w], failed[w*s+pr.U] = 0, 0
					failed[pr.V*s+w], failed[w*s+pr.V] = 0, 0
				}
			}
		}
		r.st.Passes++
		r.samples = append(r.samples, sample{round: r.st.Passes, cost: cost, swaps: r.st.Swaps})
		if !swapped || (maxPasses > 0 && r.st.Passes >= maxPasses) {
			return r
		}
	}
}

// oracleAnnealThenPolish is AnnealThenPolish with default options and the
// given seed: the annealing samples come first, then the polish's sweeps.
func oracleAnnealThenPolish(m *metric.Matrix, start perm.Perm, seed uint64) oracleRun {
	s := m.S
	cur := start.Clone()
	curErr := m.Total(cur)
	best, bestErr := cur.Clone(), curErr
	temp := math.Max(float64(curErr)/float64(s)/2, 1)
	rng := annealRNG{state: seed ^ 0x9e3779b97f4a7c15}
	var r oracleRun
	for step := 0; s >= 2 && step < 300*s; step++ {
		x := rng.intn(s)
		y := rng.intn(s - 1)
		if y >= x {
			y++
		}
		keep, swap := fourRead(m, cur, x, y)
		delta := swap - keep
		accept := delta <= 0
		if !accept {
			accept = rng.float64() < math.Exp(-float64(delta)/temp)
		}
		if accept {
			cur[x], cur[y] = cur[y], cur[x]
			curErr += delta
			r.st.Swaps++
			if curErr < bestErr {
				bestErr = curErr
				copy(best, cur)
			}
		}
		if (step+1)%s == 0 {
			r.st.Passes++
			r.samples = append(r.samples, sample{round: r.st.Passes, cost: curErr, temperature: temp})
			temp *= 0.97
		}
	}
	polish := oracleSerial(m, best)
	r.p = polish.p
	r.st.Passes += polish.st.Passes
	r.st.Swaps += polish.st.Swaps
	r.st.Attempts += polish.st.Attempts
	r.samples = append(r.samples, polish.samples...)
	return r
}

// recorder collects Progress samples from a search.
type recorder struct{ samples []sample }

func (rec *recorder) sweep(round int, cost, swaps int64) {
	rec.samples = append(rec.samples, sample{round: round, cost: cost, swaps: swaps})
}

func (rec *recorder) anneal(epoch int, cost int64, temperature float64) {
	rec.samples = append(rec.samples, sample{round: epoch, cost: cost, temperature: temperature})
}

// requireSame fails unless a search's result equals the oracle's in the
// assignment, Passes, Swaps, Attempts, Partial, Cost and Progress samples.
func requireSame(t *testing.T, name string, p perm.Perm, st Stats, err error, samples []sample, want oracleRun) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !p.Equal(want.p) {
		t.Fatalf("%s: assignment differs from the four-read oracle", name)
	}
	if st.Passes != want.st.Passes || st.Swaps != want.st.Swaps || st.Attempts != want.st.Attempts {
		t.Fatalf("%s: passes/swaps/attempts %d/%d/%d, oracle %d/%d/%d", name,
			st.Passes, st.Swaps, st.Attempts, want.st.Passes, want.st.Swaps, want.st.Attempts)
	}
	if st.Partial != want.st.Partial || st.Cost != want.st.Cost {
		t.Fatalf("%s: partial/cost %v/%d, oracle %v/%d", name, st.Partial, st.Cost, want.st.Partial, want.st.Cost)
	}
	if len(samples) != len(want.samples) {
		t.Fatalf("%s: %d progress samples, oracle %d", name, len(samples), len(want.samples))
	}
	for i := range samples {
		if samples[i] != want.samples[i] {
			t.Fatalf("%s: progress sample %d = %+v, oracle %+v", name, i, samples[i], want.samples[i])
		}
	}
}

// tieCosts builds an S×S matrix with costs in [0, 4): most swap tests tie,
// which pins the strict keep > swap rule.
func tieCosts(s int, seed int64) *metric.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := metric.NewMatrix(s)
	for i := range m.W {
		m.W[i] = metric.Cost(rng.Intn(4))
	}
	return m
}

func TestSweepMatchesFourReadOracle(t *testing.T) {
	type input struct {
		name string
		m    *metric.Matrix
	}
	var inputs []input
	for _, s := range []int{2, 3, 64, 97, 256} {
		inputs = append(inputs, input{fmt.Sprintf("rand-S%d", s), randCosts(s, int64(s))})
	}
	inputs = append(inputs,
		input{"ties-S80", tieCosts(80, 5)},
		input{"scene-S1024", sceneCosts(t, 512, 32)})
	ctx := context.Background()
	for _, in := range inputs {
		m, s := in.m, in.m.S
		coloring := edgecolor.Complete(s)
		// The same classes in a shuffled order: the skip must hold for any
		// verified coloring, not just the circle method's order.
		shuffled := &edgecolor.Coloring{N: s, Classes: slices.Clone(coloring.Classes)}
		rand.New(rand.NewSource(int64(s))).Shuffle(len(shuffled.Classes), func(i, j int) {
			shuffled.Classes[i], shuffled.Classes[j] = shuffled.Classes[j], shuffled.Classes[i]
		})
		if err := shuffled.Verify(); err != nil {
			t.Fatalf("%s: shuffled coloring: %v", in.name, err)
		}
		// Best improvement makes one swap per S(S−1)/2 tests; cap its
		// passes on the large inputs.
		bestCap := 0
		if s >= 256 {
			bestCap = 24
		}
		for _, start := range []struct {
			name string
			p    perm.Perm
		}{{"identity", perm.Identity(s)}, {"random", perm.Random(s, uint64(s)+1)}} {
			name := in.name + "/" + start.name
			t.Run(name, func(t *testing.T) {
				serial := oracleSerial(m, start.p)
				var rec recorder
				p, st, err := Serial(m, start.p, Options{Progress: rec.sweep})
				requireSame(t, "Serial", p, st, err, rec.samples, serial)

				for _, k := range []int{0, 4} {
					rec = recorder{}
					p, st, err = SerialDirty(m, start.p, Options{Progress: rec.sweep, Candidates: k})
					requireSame(t, fmt.Sprintf("SerialDirty(Candidates=%d)", k), p, st, err, rec.samples, oracleDirty(m, start.p, k))
				}

				p, st, err = SerialBestImprovement(m, start.p, Options{MaxPasses: bestCap})
				requireSame(t, "SerialBestImprovement", p, st, err, nil, oracleBestImprovement(m, start.p, bestCap))

				par := oracleParallel(m, start.p, coloring, 0, 0)
				rec = recorder{}
				p, st, err = Parallel(cuda.New(2), m, start.p, coloring, Options{Progress: rec.sweep})
				requireSame(t, "Parallel", p, st, err, rec.samples, par)

				rec = recorder{}
				p, st, err = ParallelResilientContext(ctx, nil, m, start.p, coloring, Options{Progress: rec.sweep}, Resilience{})
				requireSame(t, "ParallelResilientContext(nil device)", p, st, err, rec.samples, par)

				// Every third launch faults and is not retried, so the
				// classes alternate between the device and the host sweep.
				rec = recorder{}
				dev := cuda.New(2).WithFaults(&cuda.FaultPlan{EveryNth: 3})
				p, st, err = ParallelResilientContext(ctx, dev, m, start.p, coloring, Options{Progress: rec.sweep},
					Resilience{Retry: retry.Policy{MaxAttempts: 1}})
				requireSame(t, "ParallelResilientContext(faults)", p, st, err, rec.samples, par)
				if s > 3 && st.Degraded == 0 {
					t.Fatal("fault plan degraded no class to the host")
				}

				rec = recorder{}
				p, st, err = Parallel(cuda.New(2), m, start.p, shuffled, Options{Progress: rec.sweep})
				requireSame(t, "Parallel(shuffled classes)", p, st, err, rec.samples, oracleParallel(m, start.p, shuffled, 0, 0))

				rec = recorder{}
				p, st, err = Parallel(cuda.New(2), m, start.p, coloring, Options{Progress: rec.sweep, MaxPasses: 2})
				requireSame(t, "Parallel(MaxPasses=2)", p, st, err, rec.samples, oracleParallel(m, start.p, coloring, 2, 0))

				// The search polls ctx once before every class, so the fuse
				// stops it halfway through its second sweep.
				fuse := len(coloring.Classes) * 3 / 2
				rec = recorder{}
				p, st, err = ParallelContext(newCountdownCtx(fuse), cuda.New(2), m, start.p, coloring, Options{Progress: rec.sweep, Anytime: true})
				requireSame(t, "ParallelContext(anytime mid-sweep)", p, st, err, rec.samples, oracleParallel(m, start.p, coloring, 0, fuse))
				if s >= 64 && !st.Partial {
					t.Fatal("the fuse did not stop the parallel search mid-sweep")
				}

				rec = recorder{}
				p, st, err = AnnealThenPolishContext(ctx, m, start.p, AnnealOptions{Seed: 9, Progress: rec.anneal}, Options{Progress: rec.sweep})
				requireSame(t, "AnnealThenPolish", p, st, err, rec.samples, oracleAnnealThenPolish(m, start.p, 9))
			})
		}
	}
}
