package tjoin

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func mustSolve(t *testing.T, f func() (Result, error)) Result {
	t.Helper()
	r, err := f()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestEmptyTerminalSet(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 5)
	for _, cap := range []int{1, 3, Unbounded} {
		r := mustSolve(t, func() (Result, error) { return SolveGadget(g, nil, cap) })
		if len(r.Edges) != 0 || r.Weight != 0 {
			t.Errorf("cap %d: empty T should give empty join, got %v", cap, r)
		}
	}
	r := mustSolve(t, func() (Result, error) { return solveLawler(context.Background(), g, nil) })
	if len(r.Edges) != 0 {
		t.Error("lawler empty T")
	}
}

func TestSingleEdgeJoin(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1, 5)
	T := []int{0, 1}
	for _, cap := range []int{1, 2, 3, Unbounded} {
		r := mustSolve(t, func() (Result, error) { return SolveGadget(g, T, cap) })
		if r.Weight != 5 || len(r.Edges) != 1 {
			t.Fatalf("cap %d: %+v", cap, r)
		}
		if err := CheckJoin(g, T, r.Edges); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPathJoin(t *testing.T) {
	// Path 0-1-2-3, terminals {0,3}: join = whole path.
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 3)
	T := []int{0, 3}
	for _, cap := range []int{1, 2, 3, Unbounded} {
		r := mustSolve(t, func() (Result, error) { return SolveGadget(g, T, cap) })
		if r.Weight != 6 || len(r.Edges) != 3 {
			t.Fatalf("cap %d: %+v", cap, r)
		}
	}
	r := mustSolve(t, func() (Result, error) { return solveLawler(context.Background(), g, T) })
	if r.Weight != 6 {
		t.Fatalf("lawler: %+v", r)
	}
}

func TestCycleShortSide(t *testing.T) {
	// 4-cycle with terminals adjacent: take the cheaper arc.
	g := graph.New(4)
	g.AddEdge(0, 1, 10) // direct
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 0, 1) // long way costs 3
	T := []int{0, 1}
	for _, cap := range []int{1, 3, Unbounded} {
		r := mustSolve(t, func() (Result, error) { return SolveGadget(g, T, cap) })
		if r.Weight != 3 {
			t.Fatalf("cap %d: weight %d, want 3", cap, r.Weight)
		}
		if err := CheckJoin(g, T, r.Edges); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNoJoinOddComponent(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	// Terminals 0,1,2: component {2,3} has odd terminal count.
	T := []int{0, 1, 2}
	if _, err := SolveGadget(g, T, Unbounded); !errors.Is(err, ErrNoTJoin) {
		t.Fatalf("gadget err = %v", err)
	}
	if _, err := solveLawler(context.Background(), g, T); !errors.Is(err, ErrNoTJoin) {
		t.Fatalf("lawler err = %v", err)
	}
	if _, err := SolveExhaustiveContext(context.Background(), g, T); !errors.Is(err, ErrNoTJoin) {
		t.Fatalf("exhaustive err = %v", err)
	}
}

func TestSelfLoopsIgnored(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 0, 1)
	g.AddEdge(0, 1, 4)
	g.AddEdge(1, 1, 1)
	T := []int{0, 1}
	r := mustSolve(t, func() (Result, error) { return SolveGadget(g, T, Unbounded) })
	if r.Weight != 4 || len(r.Edges) != 1 || r.Edges[0] != 1 {
		t.Fatalf("%+v", r)
	}
}

func TestParallelEdges(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1, 9)
	g.AddEdge(0, 1, 2)
	T := []int{0, 1}
	for _, cap := range []int{1, 3, Unbounded} {
		r := mustSolve(t, func() (Result, error) { return SolveGadget(g, T, cap) })
		if r.Weight != 2 || len(r.Edges) != 1 || r.Edges[0] != 1 {
			t.Fatalf("cap %d: %+v", cap, r)
		}
	}
	// Terminals empty but parallel odd cycle? T = {} keeps empty join even
	// though both parallel edges form a cycle of weight 11.
	r := mustSolve(t, func() (Result, error) { return SolveGadget(g, nil, 3) })
	if len(r.Edges) != 0 {
		t.Fatalf("%+v", r)
	}
}

func TestFourTerminalsPairing(t *testing.T) {
	// Star: center 4, leaves 0..3. T = all leaves. Join must pair leaves
	// through the center: all four spokes.
	g := graph.New(5)
	for i := 0; i < 4; i++ {
		g.AddEdge(i, 4, int64(i+1))
	}
	T := []int{0, 1, 2, 3}
	for _, cap := range []int{1, 2, 3, Unbounded} {
		r := mustSolve(t, func() (Result, error) { return SolveGadget(g, T, cap) })
		if r.Weight != 10 || len(r.Edges) != 4 {
			t.Fatalf("cap %d: %+v", cap, r)
		}
		if err := CheckJoin(g, T, r.Edges); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGadgetSizesShrinkWithLargerGroups(t *testing.T) {
	// A node of degree 8 with terminals elsewhere; generalized gadget must
	// materialize fewer nodes than the optimized (cap-3) one.
	g := graph.New(9)
	for i := 0; i < 8; i++ {
		g.AddEdge(i, 8, 1)
	}
	T := []int{0, 1}
	rOpt := mustSolve(t, func() (Result, error) { return SolveGadget(g, T, 3) })
	rGen := mustSolve(t, func() (Result, error) { return SolveGadget(g, T, Unbounded) })
	if rOpt.Weight != rGen.Weight {
		t.Fatalf("weights differ: %d vs %d", rOpt.Weight, rGen.Weight)
	}
	if rGen.GadgetNodes >= rOpt.GadgetNodes {
		t.Errorf("generalized nodes %d should be < optimized nodes %d",
			rGen.GadgetNodes, rOpt.GadgetNodes)
	}
}

func randGraph(rng *rand.Rand, maxN, maxM int) (*graph.Graph, []int) {
	n := rng.Intn(maxN-1) + 2
	g := graph.New(n)
	m := rng.Intn(maxM)
	for i := 0; i < m; i++ {
		g.AddEdge(rng.Intn(n), rng.Intn(n), int64(rng.Intn(20)))
	}
	// Random even-size terminal set among nodes.
	var T []int
	for v := 0; v < n; v++ {
		if rng.Intn(2) == 0 {
			T = append(T, v)
		}
	}
	if len(T)%2 == 1 {
		T = T[:len(T)-1]
	}
	return g, T
}

func TestRandomCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2025))
	caps := []int{1, 2, 3, 5, Unbounded}
	for trial := 0; trial < 300; trial++ {
		g, T := randGraph(rng, 7, 12)
		want, errW := SolveExhaustiveContext(context.Background(), g, T)
		for _, cap := range caps {
			got, err := SolveGadget(g, T, cap)
			if errW != nil {
				if err == nil {
					t.Fatalf("trial %d cap %d: expected error, got weight %d", trial, cap, got.Weight)
				}
				continue
			}
			if err != nil {
				t.Fatalf("trial %d cap %d: %v", trial, cap, err)
			}
			if got.Weight != want.Weight {
				t.Fatalf("trial %d cap %d: weight %d, want %d (n=%d edges=%v T=%v)",
					trial, cap, got.Weight, want.Weight, g.N(), g.Edges(), T)
			}
			if err := CheckJoin(g, T, got.Edges); err != nil {
				t.Fatalf("trial %d cap %d: %v", trial, cap, err)
			}
		}
		gotL, errL := solveLawler(context.Background(), g, T)
		if errW != nil {
			if errL == nil {
				t.Fatalf("trial %d lawler: expected error", trial)
			}
			continue
		}
		if errL != nil {
			t.Fatalf("trial %d lawler: %v", trial, errL)
		}
		if gotL.Weight != want.Weight {
			t.Fatalf("trial %d lawler: weight %d, want %d", trial, gotL.Weight, want.Weight)
		}
		if err := CheckJoin(g, T, gotL.Edges); err != nil {
			t.Fatalf("trial %d lawler join: %v", trial, err)
		}
	}
}

func TestLargerRandomAgreement(t *testing.T) {
	// Bigger graphs: gadget vs lawler (no exhaustive).
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(20) + 5
		g := graph.New(n)
		for i := 0; i < 3*n; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), int64(rng.Intn(50)))
		}
		var T []int
		for v := 0; v < n; v++ {
			if rng.Intn(3) == 0 {
				T = append(T, v)
			}
		}
		if len(T)%2 == 1 {
			T = T[:len(T)-1]
		}
		rl, errL := solveLawler(context.Background(), g, T)
		rg, errG := SolveGadget(g, T, Unbounded)
		ro, errO := SolveGadget(g, T, 3)
		if (errL != nil) != (errG != nil) || (errL != nil) != (errO != nil) {
			t.Fatalf("trial %d: error disagreement %v %v %v", trial, errL, errG, errO)
		}
		if errL != nil {
			continue
		}
		if rl.Weight != rg.Weight || rl.Weight != ro.Weight {
			t.Fatalf("trial %d: weights lawler=%d gen=%d opt=%d", trial, rl.Weight, rg.Weight, ro.Weight)
		}
		for _, r := range []Result{rl, rg, ro} {
			if err := CheckJoin(g, T, r.Edges); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	}
}

func TestValidationErrors(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1, -1)
	if _, err := SolveGadget(g, []int{0, 1}, 3); err == nil {
		t.Error("negative weights must be rejected")
	}
	h := graph.New(2)
	h.AddEdge(0, 1, 1)
	if _, err := SolveGadget(h, []int{0, 0}, 3); err == nil {
		t.Error("duplicate terminals must be rejected")
	}
	if _, err := SolveGadget(h, []int{5, 1}, 3); err == nil {
		t.Error("out-of-range terminal must be rejected")
	}
	if _, err := SolveGadget(h, []int{0, 1}, 0); err == nil {
		t.Error("groupCap 0 must be rejected")
	}
	if err := CheckJoin(h, []int{0, 1}, []int{0, 0}); err == nil {
		t.Error("duplicate join edge must be rejected")
	}
	if err := CheckJoin(h, []int{0}, []int{0}); err == nil {
		t.Error("wrong parity must be rejected")
	}
	if err := CheckJoin(h, []int{0, 1}, []int{0}); err != nil {
		t.Errorf("valid join rejected: %v", err)
	}
}

func TestSolveComponentsMatchesWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(888))
	for trial := 0; trial < 100; trial++ {
		// Two or three islands plus noise.
		g := graph.New(0)
		var T []int
		for isl := 0; isl < rng.Intn(3)+1; isl++ {
			base := g.N()
			n := rng.Intn(5) + 2
			for i := 0; i < n; i++ {
				g.AddNode()
			}
			for i := 0; i < 2*n; i++ {
				g.AddEdge(base+rng.Intn(n), base+rng.Intn(n), int64(rng.Intn(15)))
			}
			var isT []int
			for v := base; v < base+n; v++ {
				if rng.Intn(2) == 0 {
					isT = append(isT, v)
				}
			}
			if len(isT)%2 == 1 {
				isT = isT[:len(isT)-1]
			}
			T = append(T, isT...)
		}
		if g.M() > 20 {
			continue
		}
		want, errW := SolveExhaustiveContext(context.Background(), g, T)
		for _, m := range []Method{MethodGeneralizedGadget, MethodOptimizedGadget, MethodLawler} {
			got, err := SolveContext(context.Background(), g, T, Options{Method: m})
			if errW != nil {
				if err == nil {
					t.Fatalf("trial %d m=%d: expected error", trial, m)
				}
				continue
			}
			if err != nil {
				t.Fatalf("trial %d m=%d: %v", trial, m, err)
			}
			if got.Weight != want.Weight {
				t.Fatalf("trial %d m=%d: weight %d want %d", trial, m, got.Weight, want.Weight)
			}
			if err := CheckJoin(g, T, got.Edges); err != nil {
				t.Fatalf("trial %d m=%d: %v", trial, m, err)
			}
		}
	}
}

func TestSolveExhaustiveContextCancellation(t *testing.T) {
	// A 20-edge instance spins through 2^20 masks; a pre-cancelled context
	// must abort promptly with ctx.Err() instead of enumerating them.
	g := graph.New(10)
	for i := 0; i < 20; i++ {
		g.AddEdge(i%10, (i+1)%10, int64(i%5+1))
	}
	T := []int{0, 1}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveExhaustiveContext(ctx, g, T); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// And an intact context still solves it, agreeing with the gadget path.
	want, err := SolveGadget(g, T, Unbounded)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SolveExhaustiveContext(context.Background(), g, T)
	if err != nil {
		t.Fatal(err)
	}
	if got.Weight != want.Weight {
		t.Fatalf("weight %d, want %d", got.Weight, want.Weight)
	}
}

func TestLawlerSparsificationStress(t *testing.T) {
	// Clustered instances with heavy ties: the closure pruning must never
	// change the optimum. Exhaustive is the ground truth.
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 200; trial++ {
		g := graph.New(0)
		var T []int
		for isl := 0; isl < rng.Intn(2)+1; isl++ {
			base := g.N()
			n := rng.Intn(4) + 2
			for i := 0; i < n; i++ {
				g.AddNode()
			}
			for i := 0; i < n+rng.Intn(n); i++ {
				// Small weight range forces many equal-weight ties.
				g.AddEdge(base+rng.Intn(n), base+rng.Intn(n), int64(rng.Intn(3)))
			}
			var isT []int
			for v := base; v < base+n; v++ {
				if rng.Intn(2) == 0 {
					isT = append(isT, v)
				}
			}
			if len(isT)%2 == 1 {
				isT = isT[:len(isT)-1]
			}
			T = append(T, isT...)
		}
		if g.M() > 20 {
			continue
		}
		want, errW := SolveExhaustiveContext(context.Background(), g, T)
		got, err := solveLawler(context.Background(), g, T)
		if errW != nil {
			if err == nil {
				t.Fatalf("trial %d: expected error", trial)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.Weight != want.Weight {
			t.Fatalf("trial %d: weight %d, want %d (edges=%v T=%v)",
				trial, got.Weight, want.Weight, g.Edges(), T)
		}
		if err := CheckJoin(g, T, got.Edges); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestSolveContextPicksCanonicalParallelEdge checks SolveContext's parallel
// collapse on random multigraphs with many parallel classes and tied
// weights: every method reaches the exhaustive optimum, and every edge it
// picks is the canonical one of its class (the cheapest, lowest index on
// ties), never a self-loop.
func TestSolveContextPicksCanonicalParallelEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	methods := []Method{MethodGeneralizedGadget, MethodOptimizedGadget, MethodLawler}
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(4) + 2
		g := graph.New(n)
		for i := rng.Intn(18) + 1; i > 0; i-- {
			g.AddEdge(rng.Intn(n), rng.Intn(n), int64(rng.Intn(4)))
		}
		var T []int
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				T = append(T, v)
			}
		}
		T = T[:len(T)&^1]
		want, errW := SolveExhaustiveContext(context.Background(), g, T)
		for _, m := range methods {
			got, err := SolveContext(context.Background(), g, T, Options{Method: m})
			if errW != nil {
				if err == nil {
					t.Fatalf("trial %d m=%d: expected error", trial, m)
				}
				continue
			}
			if err != nil {
				t.Fatalf("trial %d m=%d: %v", trial, m, err)
			}
			if got.Weight != want.Weight {
				t.Fatalf("trial %d m=%d: weight %d, want %d (edges %v, T %v)", trial, m, got.Weight, want.Weight, g.Edges(), T)
			}
			if err := CheckJoin(g, T, got.Edges); err != nil {
				t.Fatalf("trial %d m=%d: %v", trial, m, err)
			}
			for _, ei := range got.Edges {
				e := g.Edge(ei)
				if e.U == e.V {
					t.Fatalf("trial %d m=%d: self-loop %d picked", trial, m, ei)
				}
				for oi, o := range g.Edges() {
					same := (o.U == e.U && o.V == e.V) || (o.U == e.V && o.V == e.U)
					if same && (o.Weight < e.Weight || (o.Weight == e.Weight && oi < ei)) {
						t.Fatalf("trial %d m=%d: picked edge %d %+v over canonical %d %+v", trial, m, ei, e, oi, o)
					}
				}
			}
		}
	}
	// A tied class picks its lowest index whichever way the pair is written.
	g := graph.New(2)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 0, 2)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 1, 0)
	for _, m := range methods {
		r, err := SolveContext(context.Background(), g, []int{0, 1}, Options{Method: m})
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Edges) != 1 || r.Edges[0] != 1 || r.Weight != 2 {
			t.Fatalf("m=%d: %+v, want edge 1 of weight 2", m, r)
		}
	}
}
