package tjoin

import (
	"container/heap"
	"context"
	"testing"

	"repro/internal/graph"
)

// boxedDijkstra is the previous production implementation — container/heap
// over an interface{}-boxed item type, fresh O(N) buffers per run — kept
// verbatim as the baseline for the before/after allocation benchmarks of
// the typed index-heap rewrite (lawlerScratch).
func boxedDijkstra(g *graph.Graph, src int) ([]int64, []int) {
	dist := make([]int64, g.N())
	via := make([]int, g.N())
	done := make([]bool, g.N())
	for i := range dist {
		dist[i] = -1
		via[i] = -1
	}
	pq := &boxedHeap{}
	dist[src] = 0
	heap.Push(pq, boxedItem{0, src})
	for pq.Len() > 0 {
		it := heap.Pop(pq).(boxedItem)
		if done[it.node] {
			continue
		}
		done[it.node] = true
		for _, a := range g.Adj(it.node) {
			w := g.Edge(a.Edge).Weight
			nd := it.dist + w
			if dist[a.To] < 0 || nd < dist[a.To] {
				dist[a.To] = nd
				via[a.To] = a.Edge
				heap.Push(pq, boxedItem{nd, a.To})
			}
		}
	}
	return dist, via
}

type boxedItem struct {
	dist int64
	node int
}

type boxedHeap []boxedItem

func (h boxedHeap) Len() int            { return len(h) }
func (h boxedHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h boxedHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *boxedHeap) Push(x interface{}) { *h = append(*h, x.(boxedItem)) }
func (h *boxedHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// benchSPGraph builds a deterministic grid multigraph with varied weights
// and a spread-out terminal set — the shape of a dual graph's shortest-path
// workload.
func benchSPGraph(side int) (*graph.Graph, []int) {
	g := graph.New(side * side)
	at := func(r, c int) int { return r*side + c }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if c+1 < side {
				g.AddEdge(at(r, c), at(r, c+1), int64(1+(r*7+c*13)%23))
			}
			if r+1 < side {
				g.AddEdge(at(r, c), at(r+1, c), int64(1+(r*11+c*5)%19))
			}
		}
	}
	var T []int
	for i := 0; i < side*side; i += side*side/16 + 1 {
		T = append(T, i)
	}
	if len(T)%2 == 1 {
		T = T[:len(T)-1]
	}
	return g, T
}

// BenchmarkDijkstraBoxed measures the old container/heap implementation:
// every push boxes a heapItem, every run allocates three fresh node-sized
// buffers.
func BenchmarkDijkstraBoxed(b *testing.B) {
	g, T := benchSPGraph(48)
	g.Adj(0) // prebuild adjacency
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		boxedDijkstra(g, T[i%len(T)])
	}
}

// BenchmarkDijkstraTyped measures the replacement: typed parallel-slice
// heap, epoch-stamped buffers reused across runs, early exit once every
// terminal settles.
func BenchmarkDijkstraTyped(b *testing.B) {
	g, T := benchSPGraph(48)
	g.Adj(0)
	s := newLawlerScratch(g, T)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.run(T[i%len(T)], -1)
	}
}

// BenchmarkSolveLawler covers the full solver on the grid workload,
// including the sparsified closure and pooled matching.
func BenchmarkSolveLawler(b *testing.B) {
	g, T := benchSPGraph(24)
	g.Adj(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solveLawler(context.Background(), g, T); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveGadget covers the default gadget reduction with the
// pre-sized construction and pooled blossom state.
func BenchmarkSolveGadget(b *testing.B) {
	g, T := benchSPGraph(12)
	g.Adj(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveGadget(g, T, Unbounded); err != nil {
			b.Fatal(err)
		}
	}
}
