package matching

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// bruteMinPerfect computes the exact minimum perfect matching weight by
// recursion over the lowest unmatched node; -1 when none exists.
func bruteMinPerfect(n int, w map[[2]int]int64) int64 {
	used := make([]bool, n)
	const inf = int64(1) << 62
	var rec func() int64
	rec = func() int64 {
		u := -1
		for i := 0; i < n; i++ {
			if !used[i] {
				u = i
				break
			}
		}
		if u == -1 {
			return 0
		}
		best := inf
		used[u] = true
		for v := u + 1; v < n; v++ {
			if used[v] {
				continue
			}
			wt, ok := w[[2]int{u, v}]
			if !ok {
				continue
			}
			used[v] = true
			if sub := rec(); sub < inf && wt+sub < best {
				best = wt + sub
			}
			used[v] = false
		}
		used[u] = false
		return best
	}
	r := rec()
	if r == inf {
		return -1
	}
	return r
}

func edgesFromMap(w map[[2]int]int64) []WeightedEdge {
	var es []WeightedEdge
	for k, wt := range w {
		es = append(es, WeightedEdge{k[0], k[1], wt})
	}
	return es
}

func checkPerfect(t *testing.T, n int, edges []WeightedEdge, mate []int, total int64) {
	t.Helper()
	w := map[[2]int]int64{}
	for _, e := range edges {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		if old, ok := w[[2]int{u, v}]; !ok || e.Weight < old {
			w[[2]int{u, v}] = e.Weight
		}
	}
	var sum int64
	for u := 0; u < n; u++ {
		v := mate[u]
		if v < 0 || v >= n || mate[v] != u || v == u {
			t.Fatalf("mate array inconsistent at %d: %v", u, mate)
		}
		if u < v {
			a, b := u, v
			wt, ok := w[[2]int{a, b}]
			if !ok {
				t.Fatalf("matched pair (%d,%d) is not an edge", u, v)
			}
			sum += wt
		}
	}
	if sum != total {
		t.Fatalf("reported total %d != recomputed %d", total, sum)
	}
}

func TestTinyCases(t *testing.T) {
	// Single edge.
	mate, total, err := MinWeightPerfectMatchingCtx(context.Background(), 2, []WeightedEdge{{0, 1, 7}})
	if err != nil || total != 7 || mate[0] != 1 || mate[1] != 0 {
		t.Fatalf("single edge: mate=%v total=%d err=%v", mate, total, err)
	}
	// Zero nodes.
	if _, total, err := MinWeightPerfectMatchingCtx(context.Background(), 0, nil); err != nil || total != 0 {
		t.Fatal("empty graph should trivially match")
	}
	// Odd node count.
	if _, _, err := MinWeightPerfectMatchingCtx(context.Background(), 3, []WeightedEdge{{0, 1, 1}}); !errors.Is(err, ErrNoPerfectMatching) {
		t.Fatalf("odd n should fail, got %v", err)
	}
	// Disconnected pair.
	if _, _, err := MinWeightPerfectMatchingCtx(context.Background(), 4, []WeightedEdge{{0, 1, 1}}); !errors.Is(err, ErrNoPerfectMatching) {
		t.Fatalf("unmatchable graph should fail, got %v", err)
	}
	// Self loop ignored.
	if _, _, err := MinWeightPerfectMatchingCtx(context.Background(), 2, []WeightedEdge{{0, 0, 1}}); !errors.Is(err, ErrNoPerfectMatching) {
		t.Fatalf("self loop only should fail, got %v", err)
	}
	// Negative weight rejected.
	if _, _, err := MinWeightPerfectMatchingCtx(context.Background(), 2, []WeightedEdge{{0, 1, -3}}); err == nil {
		t.Fatal("negative weight should be rejected")
	}
}

func TestSquareChoosesCheapSides(t *testing.T) {
	// 4-cycle: two disjoint pairs possible; cheaper pair must win.
	edges := []WeightedEdge{
		{0, 1, 1}, {1, 2, 10}, {2, 3, 1}, {3, 0, 10},
	}
	mate, total, err := MinWeightPerfectMatchingCtx(context.Background(), 4, edges)
	if err != nil {
		t.Fatal(err)
	}
	checkPerfect(t, 4, edges, mate, total)
	if total != 2 {
		t.Fatalf("total = %d, want 2", total)
	}
}

func TestForcedBlossom(t *testing.T) {
	// Triangle with a pendant: must use blossom reasoning.
	// 0-1-2 triangle, 3 attached to 2, 4 attached to 0, 5 attached to 1.
	edges := []WeightedEdge{
		{0, 1, 5}, {1, 2, 5}, {2, 0, 5},
		{2, 3, 1}, {0, 4, 1}, {1, 5, 1},
	}
	mate, total, err := MinWeightPerfectMatchingCtx(context.Background(), 6, edges)
	if err != nil {
		t.Fatal(err)
	}
	checkPerfect(t, 6, edges, mate, total)
	if total != 3 {
		t.Fatalf("total = %d, want 3 (all pendants)", total)
	}
}

func TestParallelEdgesUseCheapest(t *testing.T) {
	edges := []WeightedEdge{{0, 1, 9}, {0, 1, 4}, {0, 1, 6}}
	_, total, err := MinWeightPerfectMatchingCtx(context.Background(), 2, edges)
	if err != nil || total != 4 {
		t.Fatalf("total=%d err=%v, want 4", total, err)
	}
}

func TestZeroWeightsAllowed(t *testing.T) {
	edges := []WeightedEdge{{0, 1, 0}, {2, 3, 0}, {0, 2, 5}, {1, 3, 5}}
	_, total, err := MinWeightPerfectMatchingCtx(context.Background(), 4, edges)
	if err != nil || total != 0 {
		t.Fatalf("total=%d err=%v, want 0", total, err)
	}
}

func TestRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 400; trial++ {
		n := 2 * (rng.Intn(5) + 1) // 2..10
		p := 0.3 + rng.Float64()*0.6
		w := map[[2]int]int64{}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < p {
					w[[2]int{u, v}] = int64(rng.Intn(100))
				}
			}
		}
		want := bruteMinPerfect(n, w)
		edges := edgesFromMap(w)
		mate, total, err := MinWeightPerfectMatchingCtx(context.Background(), n, edges)
		if want < 0 {
			if !errors.Is(err, ErrNoPerfectMatching) {
				t.Fatalf("trial %d: expected no matching, got total=%d err=%v (n=%d w=%v)",
					trial, total, err, n, w)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: solver failed: %v (n=%d w=%v)", trial, err, n, w)
		}
		checkPerfect(t, n, edges, mate, total)
		if total != want {
			t.Fatalf("trial %d: total=%d want=%d (n=%d w=%v)", trial, total, want, n, w)
		}
	}
}

func TestRandomDenseLarger(t *testing.T) {
	// Larger complete graphs: verify optimality against brute force at n=12
	// and internal consistency at n=40.
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		n := 12
		w := map[[2]int]int64{}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				w[[2]int{u, v}] = int64(rng.Intn(1000))
			}
		}
		want := bruteMinPerfect(n, w)
		edges := edgesFromMap(w)
		mate, total, err := MinWeightPerfectMatchingCtx(context.Background(), n, edges)
		if err != nil {
			t.Fatal(err)
		}
		checkPerfect(t, n, edges, mate, total)
		if total != want {
			t.Fatalf("trial %d: total=%d want=%d", trial, total, want)
		}
	}
	// Internal consistency on a bigger instance.
	n := 40
	var edges []WeightedEdge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, WeightedEdge{u, v, int64(rng.Intn(10000))})
		}
	}
	mate, total, err := MinWeightPerfectMatchingCtx(context.Background(), n, edges)
	if err != nil {
		t.Fatal(err)
	}
	checkPerfect(t, n, edges, mate, total)
}

func TestSparseStructuredGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	// Even cycles with random weights: optimum is min of the two parity
	// classes.
	for trial := 0; trial < 50; trial++ {
		n := 2 * (rng.Intn(8) + 2)
		var edges []WeightedEdge
		var even, odd int64
		for i := 0; i < n; i++ {
			w := int64(rng.Intn(500))
			edges = append(edges, WeightedEdge{i, (i + 1) % n, w})
			if i%2 == 0 {
				even += w
			} else {
				odd += w
			}
		}
		want := even
		if odd < even {
			want = odd
		}
		mate, total, err := MinWeightPerfectMatchingCtx(context.Background(), n, edges)
		if err != nil {
			t.Fatal(err)
		}
		checkPerfect(t, n, edges, mate, total)
		if total != want {
			t.Fatalf("cycle n=%d: total=%d want=%d", n, total, want)
		}
	}
}

func TestLargeWeights(t *testing.T) {
	big := int64(1) << 40
	edges := []WeightedEdge{
		{0, 1, big}, {2, 3, big + 5}, {0, 2, big + 1}, {1, 3, big + 1},
	}
	_, total, err := MinWeightPerfectMatchingCtx(context.Background(), 4, edges)
	if err != nil {
		t.Fatal(err)
	}
	if total != 2*big+2 {
		t.Fatalf("total=%d want=%d", total, 2*big+2)
	}
}

func BenchmarkBlossomComplete64(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	n := 64
	var edges []WeightedEdge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, WeightedEdge{u, v, int64(rng.Intn(1000))})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := MinWeightPerfectMatchingCtx(context.Background(), n, edges); err != nil {
			b.Fatal(err)
		}
	}
}
