package core

import (
	"context"

	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/tjoin"
)

// wireLayout builds vertical wires of width 100 x height 1000 at the given
// x origins.
func wireLayout(name string, xs ...int64) *layout.Layout {
	l := layout.New(name)
	for _, x := range xs {
		l.Add(geom.R(x, 0, x+100, 1000))
	}
	return l
}

func rules() layout.Rules { return layout.Default90nm() }

func TestIsolatedWireAssignable(t *testing.T) {
	l := wireLayout("one", 0)
	ok, err := IsPhaseAssignable(l, rules())
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	cg, err := BuildGraph(l, rules(), PCG)
	if err != nil {
		t.Fatal(err)
	}
	if cg.Nodes() != 2 || cg.Edges() != 1 {
		t.Errorf("nodes=%d edges=%d, want 2/1", cg.Nodes(), cg.Edges())
	}
	if cg.Meta[0].Kind != FeatureEdge {
		t.Error("single edge should be the feature edge")
	}
}

func TestChainOfWiresAssignable(t *testing.T) {
	// Pitch 500: adjacent inner shifters merge, outer ones stay clear.
	l := wireLayout("chain", 0, 500, 1000, 1500)
	ok, err := IsPhaseAssignable(l, rules())
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	cg, _ := BuildGraph(l, rules(), PCG)
	det, err := DetectContext(context.Background(), cg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(det.FinalConflicts) != 0 {
		t.Fatalf("conflicts on assignable layout: %v", det.FinalConflicts)
	}
	a, err := AssignPhases(det)
	if err != nil {
		t.Fatal(err)
	}
	if v := a.Verify(cg); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	// Adjacent wires' facing shifters must carry equal phases, flanks of
	// one wire opposite phases. All four wires are critical, so wire f's
	// flanks sit in slots 2f and 2f+1.
	for f := 0; f < 4; f++ {
		if a.Phases[2*f] == a.Phases[2*f+1] {
			t.Errorf("feature %d flanks share phase", f)
		}
	}
}

func TestDensePairConflict(t *testing.T) {
	// Pitch 350: left shifter of B merges with BOTH shifters of A → odd
	// cycle. Optimal repair weight is 300 (one deficit-300 edge, or two
	// deficit-150 edges).
	l := wireLayout("dense2", 0, 350)
	ok, err := IsPhaseAssignable(l, rules())
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("dense pair should not be phase-assignable")
	}
	cg, _ := BuildGraph(l, rules(), PCG)
	det, err := DetectContext(context.Background(), cg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(det.FinalConflicts) == 0 {
		t.Fatal("expected conflicts")
	}
	var w int64
	for _, c := range det.FinalConflicts {
		w += cg.Drawing.G.Edge(c.Edge).Weight
		if c.Meta.Kind == FeatureEdge {
			t.Error("flow must not sacrifice feature edges here")
		}
	}
	if w != 300 {
		t.Errorf("conflict weight = %d, want 300", w)
	}
	// The crossing-free case is exactly optimal: compare with greedy which
	// must be no better.
	gb := GreedyDetect(cg)
	var wg int64
	for _, c := range gb.FinalConflicts {
		wg += cg.Drawing.G.Edge(c.Edge).Weight
	}
	if wg < w {
		t.Errorf("greedy %d beat optimal %d", wg, w)
	}
	// Phases must verify after waiving.
	a, err := AssignPhases(det)
	if err != nil {
		t.Fatal(err)
	}
	if v := a.Verify(cg); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

func TestTripleWireFigure1(t *testing.T) {
	// The Figure-1 style non-assignable cluster.
	l := wireLayout("fig1", 0, 350, 700)
	ok, _ := IsPhaseAssignable(l, rules())
	if ok {
		t.Fatal("triple should conflict")
	}
	cg, _ := BuildGraph(l, rules(), PCG)
	det, err := DetectContext(context.Background(), cg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(det.FinalConflicts) == 0 {
		t.Fatal("expected conflicts")
	}
	a, err := AssignPhases(det)
	if err != nil {
		t.Fatal(err)
	}
	if v := a.Verify(cg); len(v) != 0 {
		t.Fatalf("violations after waiver: %v", v)
	}
}

func TestFGHasMoreNodesThanPCG(t *testing.T) {
	l := wireLayout("cmp", 0, 350, 700, 1200, 1700)
	pcg, err := BuildGraph(l, rules(), PCG)
	if err != nil {
		t.Fatal(err)
	}
	fg, err := BuildGraph(l, rules(), FG)
	if err != nil {
		t.Fatal(err)
	}
	if fg.BendNodes == 0 {
		t.Error("FG should route feature edges through bends")
	}
	if pcg.BendNodes != 0 {
		t.Error("PCG must be straight-line")
	}
	// Same constraint structure: identical graphs modulo drawing.
	if pcg.Edges() != fg.Edges() || pcg.Nodes() != fg.Nodes() {
		t.Errorf("constraint sizes differ: PCG %d/%d FG %d/%d",
			pcg.Nodes(), pcg.Edges(), fg.Nodes(), fg.Edges())
	}
	// Both must agree on assignability (Theorem 1 holds for both).
	if pcg.Drawing.G.IsBipartite() != fg.Drawing.G.IsBipartite() {
		t.Error("PCG and FG disagree on bipartiteness")
	}
}

func TestDetectMethodsAgreeOnWeight(t *testing.T) {
	l := wireLayout("methods", 0, 350, 700, 1050, 1500)
	for _, kind := range []GraphKind{PCG, FG} {
		cg1, _ := BuildGraph(l, rules(), kind)
		d1, err := DetectContext(context.Background(), cg1, Options{TJoin: tjoin.Options{Method: tjoin.MethodGeneralizedGadget}})
		if err != nil {
			t.Fatal(err)
		}
		cg2, _ := BuildGraph(l, rules(), kind)
		d2, err := DetectContext(context.Background(), cg2, Options{TJoin: tjoin.Options{Method: tjoin.MethodOptimizedGadget}})
		if err != nil {
			t.Fatal(err)
		}
		cg3, _ := BuildGraph(l, rules(), kind)
		d3, err := DetectContext(context.Background(), cg3, Options{TJoin: tjoin.Options{Method: tjoin.MethodLawler}})
		if err != nil {
			t.Fatal(err)
		}
		w := func(d *Detection, cg *ConflictGraph) int64 {
			var s int64
			for _, c := range d.FinalConflicts {
				s += cg.Drawing.G.Edge(c.Edge).Weight
			}
			return s
		}
		w1, w2, w3 := w(d1, cg1), w(d2, cg2), w(d3, cg3)
		if w1 != w2 || w1 != w3 {
			t.Fatalf("%v: weights %d %d %d", kind, w1, w2, w3)
		}
		// Generalized gadget must be no larger than optimized.
		if d1.Stats.GadgetNodes > d2.Stats.GadgetNodes {
			t.Errorf("generalized gadget larger than optimized: %d > %d",
				d1.Stats.GadgetNodes, d2.Stats.GadgetNodes)
		}
	}
}

// bruteAssignable enumerates all phase assignments directly on the layout
// constraints — the independent oracle for Theorem 1.
func bruteAssignable(cg *ConflictGraph) bool {
	n := len(cg.Set.Shifters)
	if n > 20 {
		panic("too many shifters for brute force")
	}
	for mask := 0; mask < 1<<n; mask++ {
		ok := true
		for k := 0; k < n; k += 2 {
			if (mask>>k)&1 == (mask>>(k+1))&1 {
				ok = false
				break
			}
		}
		if ok {
			for _, ov := range cg.Set.Overlaps {
				if (mask>>ov.A)&1 != (mask>>ov.B)&1 {
					ok = false
					break
				}
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestTheorem1Property(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		l := layout.New("rand")
		nw := rng.Intn(6) + 1
		for i := 0; i < nw; i++ {
			x := int64(rng.Intn(10)) * 175
			y := int64(rng.Intn(4)) * 400
			h := int64(rng.Intn(3)+1) * 400
			if rng.Intn(2) == 0 {
				l.Add(geom.R(x, y, x+100, y+h))
			} else {
				l.Add(geom.R(y, x, y+h, x+100))
			}
		}
		cg, err := BuildGraph(l, rules(), PCG)
		if err != nil {
			t.Fatal(err)
		}
		if len(cg.Set.Shifters) > 16 {
			continue
		}
		want := bruteAssignable(cg)
		got := cg.Drawing.G.IsBipartite()
		if got != want {
			t.Fatalf("trial %d: bipartite=%v assignable=%v", trial, got, want)
		}
		// The full flow must also produce a verified assignment.
		det, err := DetectContext(context.Background(), cg, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if want && len(det.FinalConflicts) != 0 {
			t.Fatalf("trial %d: spurious conflicts on assignable layout", trial)
		}
		a, err := AssignPhases(det)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if v := a.Verify(cg); len(v) != 0 {
			t.Fatalf("trial %d: violations %v", trial, v)
		}
	}
}

func TestDetectStatsPopulated(t *testing.T) {
	l := wireLayout("stats", 0, 350, 700)
	cg, _ := BuildGraph(l, rules(), PCG)
	det, err := DetectContext(context.Background(), cg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := det.Stats
	if s.GraphNodes == 0 || s.GraphEdges == 0 || s.DualNodes == 0 {
		t.Errorf("stats not populated: %+v", s)
	}
	if s.OddFaces%2 != 0 {
		t.Errorf("odd face count must be even, got %d", s.OddFaces)
	}
}

func TestOverlapRegionCenterFallsInsideGap(t *testing.T) {
	r := rules()
	a := geom.R(0, 0, 200, 1000)
	b := geom.R(400, 0, 600, 1000)
	q := overlapRegionCenter(a, b, r)
	if q.X < 200 || q.X > 400 {
		t.Errorf("region center %v should lie in the gap", q)
	}
}

func TestPosRegistryNudges(t *testing.T) {
	pr := newPosRegistry(3)
	p := geom.Pt(10, 10)
	p1 := pr.claim(p)
	p2 := pr.claim(p)
	p3 := pr.claim(p)
	if p1 != p {
		t.Error("first claim should be exact")
	}
	if p2 == p1 || p3 == p1 || p2 == p3 {
		t.Error("claims must be distinct")
	}
	if geom.Abs(p2.X-p.X)+geom.Abs(p2.Y-p.Y) > 2 {
		t.Error("nudge should be small")
	}
}

// TestPosRegistryMatchesPointSet checks claims against a registry keyed by
// the point itself, on clustered duplicates placed both inside the int32
// range and straddling its edges, where nudges cross between the packed and
// the point-keyed maps.
func TestPosRegistryMatchesPointSet(t *testing.T) {
	used := map[geom.Point]bool{}
	ref := func(p geom.Point) geom.Point {
		if !used[p] {
			used[p] = true
			return p
		}
		for radius := int64(1); ; radius++ {
			for _, d := range nudges {
				q := geom.Pt(p.X+d.X*radius, p.Y+d.Y*radius)
				if !used[q] {
					used[q] = true
					return q
				}
			}
		}
	}
	pr := newPosRegistry(16)
	rng := rand.New(rand.NewSource(3))
	centers := []geom.Point{
		geom.Pt(0, 0), geom.Pt(-5, 7),
		geom.Pt(math.MaxInt32, 0), geom.Pt(math.MinInt32, math.MaxInt32),
		geom.Pt(1<<40, -(1 << 40)),
	}
	for k := 0; k < 5000; k++ {
		c := centers[rng.Intn(len(centers))]
		p := geom.Pt(c.X+rng.Int63n(5)-2, c.Y+rng.Int63n(5)-2)
		if got, want := pr.claim(p), ref(p); got != want {
			t.Fatalf("claim %d of %v = %v, want %v", k, p, got, want)
		}
	}
}
