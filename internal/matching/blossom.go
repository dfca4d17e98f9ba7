// Package matching provides an exact minimum-weight perfect matching solver
// for general graphs, the computational core of the T-join reduction in the
// AAPSM conflict-detection flow (paper §3.1.2).
//
// The implementation is the classical O(V³) primal–dual blossom algorithm
// on a dense edge matrix (Galil's exposition of Edmonds' algorithm). It
// maximizes total weight internally; MinWeightPerfectMatchingCtx negates
// weights against a large constant so that any perfect matching dominates
// any non-perfect one and minimum weight is recovered exactly. All
// arithmetic is int64 and weights are doubled internally so dual variables
// stay integral.
package matching

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrNoPerfectMatching is returned when the input graph admits no perfect
// matching (odd node count or structurally unmatchable).
var ErrNoPerfectMatching = errors.New("matching: graph has no perfect matching")

// MaxNodes bounds the solver's dense matrices. Component sizes in the AAPSM
// flow are far below this; the bound exists to fail fast on pathological
// inputs instead of exhausting memory.
const MaxNodes = 4096

// WeightedEdge is an input edge for the solvers.
type WeightedEdge struct {
	U, V   int
	Weight int64
}

// MinWeightPerfectMatchingCtx computes an exact minimum-weight perfect
// matching of the undirected graph with n nodes (0-indexed) and the given
// edges. Parallel edges are allowed (the cheapest is used); self-loops are
// ignored (they can never be matched). It returns mate[u] = v for every node
// and the total weight. Weights may be any non-negative int64 small enough
// that n*maxWeight does not overflow. The solver polls ctx between
// primal-dual rounds (the O(V³) hot loop) and aborts with ctx.Err() once it
// is done.
func MinWeightPerfectMatchingCtx(ctx context.Context, n int, edges []WeightedEdge) (mate []int, total int64, err error) {
	if n == 0 {
		return nil, 0, nil
	}
	if n%2 != 0 {
		return nil, 0, ErrNoPerfectMatching
	}
	if n > MaxNodes {
		return nil, 0, fmt.Errorf("matching: %d nodes exceeds MaxNodes=%d", n, MaxNodes)
	}
	var maxW int64 = 0
	for _, e := range edges {
		if e.Weight < 0 {
			return nil, 0, fmt.Errorf("matching: negative weight %d on edge (%d,%d)", e.Weight, e.U, e.V)
		}
		if e.Weight > maxW {
			maxW = e.Weight
		}
	}
	// Transform to maximization: w' = C - w. C exceeds the weight of any
	// possible matching so that maximum-weight matching is forced to maximum
	// cardinality first (any perfect matching totals more than any smaller
	// one); it also keeps every present edge's transformed weight positive
	// (0 marks "no edge" internally).
	c := maxW*int64(n/2) + 1
	b := newBlossom(n)
	defer b.release()
	if ctx != nil && ctx.Done() != nil {
		b.ctx = ctx
	}
	present := 0
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, 0, fmt.Errorf("matching: edge (%d,%d) out of range n=%d", e.U, e.V, n)
		}
		w := c - e.Weight
		if b.setEdgeMax(e.U+1, e.V+1, w) {
			present++
		}
	}
	if present == 0 {
		return nil, 0, ErrNoPerfectMatching
	}
	pairs := b.solve()
	if b.err != nil {
		return nil, 0, b.err
	}
	if pairs != n/2 {
		return nil, 0, ErrNoPerfectMatching
	}
	mate = make([]int, n)
	total = 0
	for u := 1; u <= n; u++ {
		mate[u-1] = b.match[u] - 1
		if u < b.match[u] {
			total += c - b.wOrig[u*b.stride+b.match[u]]
		}
	}
	return mate, total, nil
}

// blossom holds the dense primal–dual state, 1-indexed; ids n+1..2n are
// blossom (super-node) slots.
type blossom struct {
	n, nx  int
	stride int
	// Edge matrices indexed [u*stride+v]: eu/ev are the real endpoints the
	// (possibly blossom-level) edge stands for; ew is the doubled,
	// transformed weight (0 = absent).
	eu, ev []int32
	ew     []int64
	wOrig  []int64 // transformed (un-doubled) weights between real nodes

	lab        []int64 // dual variables
	match      []int   // matched real endpoint (per real node / blossom)
	slack      []int
	st         []int // top-level blossom containing x
	pa         []int // parent arc tail (a real vertex id)
	flowerFrom [][]int
	ffBack     []int // flat backing for the flowerFrom rows (one allocation)
	flower     [][]int
	s          []int8 // -1 free, 0 outer (S), 1 inner (T)
	vis        []int
	visT       int
	q          []int

	ctx context.Context // nil = not cancellable
	err error           // sticky ctx.Err() once cancelled
}

// cancelled polls the context (when one is set) and latches its error.
func (b *blossom) cancelled() bool {
	if b.err != nil {
		return true
	}
	if b.ctx == nil {
		return false
	}
	select {
	case <-b.ctx.Done():
		b.err = b.ctx.Err()
		return true
	default:
		return false
	}
}

// blossomPool recycles solver state between solves. The detection flow runs
// one small matching instance per conflict cluster — thousands per layout —
// and the dense O(n²) matrices plus the per-node flower rows dominated its
// allocation profile; clearing a pooled instance is much cheaper than
// faulting in fresh zeroed pages every time.
var blossomPool sync.Pool

func newBlossom(n int) *blossom {
	nn := 2*n + 1
	b, _ := blossomPool.Get().(*blossom)
	if b == nil || cap(b.ew) < nn*nn || cap(b.ffBack) < nn*(n+1) || cap(b.flower) < nn {
		b = &blossom{
			eu:         make([]int32, nn*nn),
			ev:         make([]int32, nn*nn),
			ew:         make([]int64, nn*nn),
			wOrig:      make([]int64, (n+1)*nn),
			lab:        make([]int64, nn),
			match:      make([]int, nn),
			slack:      make([]int, nn),
			st:         make([]int, nn),
			pa:         make([]int, nn),
			s:          make([]int8, nn),
			vis:        make([]int, nn),
			ffBack:     make([]int, nn*(n+1)),
			flowerFrom: make([][]int, nn),
			flower:     make([][]int, nn),
		}
	} else {
		b.eu = b.eu[:nn*nn]
		b.ev = b.ev[:nn*nn]
		b.ew = b.ew[:nn*nn]
		b.wOrig = b.wOrig[:(n+1)*nn]
		b.lab = b.lab[:nn]
		b.match = b.match[:nn]
		b.slack = b.slack[:nn]
		b.st = b.st[:nn]
		b.pa = b.pa[:nn]
		b.s = b.s[:nn]
		b.vis = b.vis[:nn]
		b.ffBack = b.ffBack[:nn*(n+1)]
		b.flowerFrom = b.flowerFrom[:nn]
		b.flower = b.flower[:nn]
		clear(b.eu)
		clear(b.ev)
		clear(b.ew)
		clear(b.wOrig)
		clear(b.lab)
		clear(b.match)
		clear(b.slack)
		clear(b.st)
		clear(b.pa)
		clear(b.s)
		clear(b.vis)
		clear(b.ffBack)
		for i := range b.flower {
			if b.flower[i] != nil {
				b.flower[i] = b.flower[i][:0]
			}
		}
		b.q = b.q[:0]
		b.visT = 0
		b.ctx = nil
		b.err = nil
	}
	b.n, b.nx, b.stride = n, n, nn
	for u := 0; u < nn; u++ {
		b.flowerFrom[u] = b.ffBack[u*(n+1) : (u+1)*(n+1) : (u+1)*(n+1)]
	}
	for u := 1; u <= n; u++ {
		b.flowerFrom[u][u] = u
		b.st[u] = u
		for v := 1; v <= n; v++ {
			b.eu[u*b.stride+v] = int32(u)
			b.ev[u*b.stride+v] = int32(v)
		}
	}
	return b
}

// release returns the solver state to the pool. The caller must be done
// reading match/wOrig.
func (b *blossom) release() { blossomPool.Put(b) }

// setEdgeMax records the max-transformed weight w (>0) for edge (u,v),
// keeping the best parallel edge. Reports whether the edge was stored or
// improved.
func (b *blossom) setEdgeMax(u, v int, w int64) bool {
	i, j := u*b.stride+v, v*b.stride+u
	if b.ew[i] >= 2*w {
		return false
	}
	b.ew[i], b.ew[j] = 2*w, 2*w // double for integral duals
	b.wOrig[i], b.wOrig[j] = w, w
	return true
}

func (b *blossom) eDelta(u, v int) int64 {
	i := u*b.stride + v
	return b.lab[int(b.eu[i])] + b.lab[int(b.ev[i])] - b.ew[int(b.eu[i])*b.stride+int(b.ev[i])]
}

func (b *blossom) updateSlack(u, x int) {
	if b.slack[x] == 0 || b.eDelta(u, x) < b.eDelta(b.slack[x], x) {
		b.slack[x] = u
	}
}

func (b *blossom) setSlack(x int) {
	b.slack[x] = 0
	for u := 1; u <= b.n; u++ {
		if b.ew[u*b.stride+x] > 0 && b.st[u] != x && b.s[b.st[u]] == 0 {
			b.updateSlack(u, x)
		}
	}
}

func (b *blossom) qPush(x int) {
	if x <= b.n {
		b.q = append(b.q, x)
		return
	}
	for _, p := range b.flower[x] {
		b.qPush(p)
	}
}

func (b *blossom) setSt(x, v int) {
	b.st[x] = v
	if x > b.n {
		for _, p := range b.flower[x] {
			b.setSt(p, v)
		}
	}
}

// getPr rotates the parity of blossom bl's cycle so that the child xr sits
// at an even position from the base, returning that position.
func (b *blossom) getPr(bl, xr int) int {
	pr := 0
	for i, p := range b.flower[bl] {
		if p == xr {
			pr = i
			break
		}
	}
	if pr%2 == 1 {
		// Reverse the cycle (excluding the base) to flip traversal parity.
		f := b.flower[bl]
		for i, j := 1, len(f)-1; i < j; i, j = i+1, j-1 {
			f[i], f[j] = f[j], f[i]
		}
		return len(f) - pr
	}
	return pr
}

func (b *blossom) setMatch(u, v int) {
	i := u*b.stride + v
	b.match[u] = int(b.ev[i])
	if u <= b.n {
		return
	}
	xr := b.flowerFrom[u][int(b.eu[i])]
	pr := b.getPr(u, xr)
	for i := 0; i < pr; i++ {
		b.setMatch(b.flower[u][i], b.flower[u][i^1])
	}
	b.setMatch(xr, v)
	// Rotate so xr becomes the new base.
	f := b.flower[u]
	b.flower[u] = append(f[pr:], f[:pr]...)
}

func (b *blossom) augment(u, v int) {
	for {
		xnv := b.st[b.match[u]]
		b.setMatch(u, v)
		if xnv == 0 {
			return
		}
		b.setMatch(xnv, b.st[b.pa[xnv]])
		u, v = b.st[b.pa[xnv]], xnv
	}
}

func (b *blossom) getLca(u, v int) int {
	b.visT++
	for u != 0 || v != 0 {
		if u != 0 {
			if b.vis[u] == b.visT {
				return u
			}
			b.vis[u] = b.visT
			u = b.st[b.match[u]]
			if u != 0 {
				u = b.st[b.pa[u]]
			}
		}
		u, v = v, u
	}
	return 0
}

func (b *blossom) addBlossom(u, lca, v int) {
	bl := b.n + 1
	for bl <= b.nx && b.st[bl] != 0 {
		bl++
	}
	if bl > b.nx {
		b.nx++
	}
	b.lab[bl] = 0
	b.s[bl] = 0
	b.match[bl] = b.match[lca]
	b.flower[bl] = b.flower[bl][:0]
	b.flower[bl] = append(b.flower[bl], lca)
	for x := u; x != lca; {
		b.flower[bl] = append(b.flower[bl], x)
		y := b.st[b.match[x]]
		b.flower[bl] = append(b.flower[bl], y)
		b.qPush(y)
		x = b.st[b.pa[y]]
	}
	// Reverse all but the base so the u-side runs backwards from lca.
	f := b.flower[bl]
	for i, j := 1, len(f)-1; i < j; i, j = i+1, j-1 {
		f[i], f[j] = f[j], f[i]
	}
	for x := v; x != lca; {
		b.flower[bl] = append(b.flower[bl], x)
		y := b.st[b.match[x]]
		b.flower[bl] = append(b.flower[bl], y)
		b.qPush(y)
		x = b.st[b.pa[y]]
	}
	b.setSt(bl, bl)
	for x := 1; x <= b.nx; x++ {
		b.ew[bl*b.stride+x] = 0
		b.ew[x*b.stride+bl] = 0
	}
	for x := 1; x <= b.n; x++ {
		b.flowerFrom[bl][x] = 0
	}
	for _, xs := range b.flower[bl] {
		for x := 1; x <= b.nx; x++ {
			if b.ew[bl*b.stride+x] == 0 ||
				(b.ew[xs*b.stride+x] > 0 && b.eDelta(xs, x) < b.eDelta(bl, x)) {
				if b.ew[xs*b.stride+x] > 0 {
					i, j := bl*b.stride+x, x*b.stride+bl
					k, l := xs*b.stride+x, x*b.stride+xs
					b.eu[i], b.ev[i], b.ew[i] = b.eu[k], b.ev[k], b.ew[k]
					b.eu[j], b.ev[j], b.ew[j] = b.eu[l], b.ev[l], b.ew[l]
				}
			}
		}
		for x := 1; x <= b.n; x++ {
			if b.flowerFrom[xs][x] != 0 {
				b.flowerFrom[bl][x] = xs
			}
		}
	}
	b.setSlack(bl)
}

func (b *blossom) expandBlossom(bl int) {
	for _, xs := range b.flower[bl] {
		b.setSt(xs, xs)
	}
	xr := b.flowerFrom[bl][int(b.eu[bl*b.stride+b.pa[bl]])]
	pr := b.getPr(bl, xr)
	for i := 0; i < pr; i += 2 {
		xs := b.flower[bl][i]
		xns := b.flower[bl][i+1]
		b.pa[xs] = int(b.eu[xns*b.stride+xs])
		b.s[xs] = 1
		b.s[xns] = 0
		b.slack[xs] = 0
		b.setSlack(xns)
		b.qPush(xns)
	}
	b.s[xr] = 1
	b.pa[xr] = b.pa[bl]
	for i := pr + 1; i < len(b.flower[bl]); i++ {
		xs := b.flower[bl][i]
		b.s[xs] = -1
		b.setSlack(xs)
	}
	b.st[bl] = 0
	b.flower[bl] = b.flower[bl][:0]
}

// onFoundEdge processes a tight edge out of the S-node containing eu toward
// the node containing ev; returns true when it augments.
func (b *blossom) onFoundEdge(eu, ev int) bool {
	u, v := b.st[eu], b.st[ev]
	switch b.s[v] {
	case -1:
		b.pa[v] = eu
		b.s[v] = 1
		nu := b.st[b.match[v]]
		b.slack[v] = 0
		b.slack[nu] = 0
		b.s[nu] = 0
		b.qPush(nu)
	case 0:
		lca := b.getLca(u, v)
		if lca == 0 {
			b.augment(u, v)
			b.augment(v, u)
			return true
		}
		b.addBlossom(u, lca, v)
	}
	return false
}

// matchingPhase grows alternating trees until an augmentation or failure.
func (b *blossom) matchingPhase() bool {
	for x := 1; x <= b.nx; x++ {
		b.s[x] = -1
		b.slack[x] = 0
	}
	b.q = b.q[:0]
	for x := 1; x <= b.nx; x++ {
		if b.st[x] == x && b.match[x] == 0 {
			b.pa[x] = 0
			b.s[x] = 0
			b.qPush(x)
		}
	}
	if len(b.q) == 0 {
		return false
	}
	for {
		if b.cancelled() {
			return false
		}
		for len(b.q) > 0 {
			u := b.q[0]
			b.q = b.q[1:]
			if b.s[b.st[u]] == 1 {
				continue
			}
			for v := 1; v <= b.n; v++ {
				if b.ew[u*b.stride+v] > 0 && b.st[u] != b.st[v] {
					if b.eDelta(u, v) == 0 {
						if b.onFoundEdge(u, v) {
							return true
						}
					} else {
						b.updateSlack(u, b.st[v])
					}
				}
			}
		}
		d := int64(1) << 62
		for x := b.n + 1; x <= b.nx; x++ {
			if b.st[x] == x && b.s[x] == 1 && b.lab[x]/2 < d {
				d = b.lab[x] / 2
			}
		}
		for x := 1; x <= b.nx; x++ {
			if b.st[x] == x && b.slack[x] != 0 {
				switch b.s[x] {
				case -1:
					if dd := b.eDelta(b.slack[x], x); dd < d {
						d = dd
					}
				case 0:
					if dd := b.eDelta(b.slack[x], x) / 2; dd < d {
						d = dd
					}
				}
			}
		}
		for u := 1; u <= b.n; u++ {
			switch b.s[b.st[u]] {
			case 0:
				if b.lab[u] <= d {
					return false // a free dual hit zero: no augmenting path
				}
				b.lab[u] -= d
			case 1:
				b.lab[u] += d
			}
		}
		for bl := b.n + 1; bl <= b.nx; bl++ {
			if b.st[bl] == bl {
				switch b.s[bl] {
				case 0:
					b.lab[bl] += 2 * d
				case 1:
					b.lab[bl] -= 2 * d
				}
			}
		}
		b.q = b.q[:0]
		for x := 1; x <= b.nx; x++ {
			if b.st[x] == x && b.slack[x] != 0 && b.st[b.slack[x]] != x &&
				b.eDelta(b.slack[x], x) == 0 {
				if b.onFoundEdge(b.slack[x], x) {
					return true
				}
			}
		}
		for bl := b.n + 1; bl <= b.nx; bl++ {
			if b.st[bl] == bl && b.s[bl] == 1 && b.lab[bl] == 0 {
				b.expandBlossom(bl)
			}
		}
	}
}

// solve runs phases to completion and returns the number of matched pairs.
func (b *blossom) solve() int {
	var wMax int64
	for u := 1; u <= b.n; u++ {
		for v := 1; v <= b.n; v++ {
			if b.ew[u*b.stride+v] > wMax {
				wMax = b.ew[u*b.stride+v]
			}
		}
	}
	for u := 1; u <= b.n; u++ {
		b.lab[u] = wMax / 2
	}
	pairs := 0
	for !b.cancelled() && b.matchingPhase() {
		pairs++
	}
	return pairs
}
