package correct

import (
	"math/rand"
	"testing"
)

// TestCutShiftMatchesScan checks the binary-searched cut offset against a
// scan of every cut (a coordinate moves by the width of each cut with
// Pos <= c) on random cut sets with repeated positions, probing every cut
// position, its neighbours and random coordinates.
func TestCutShiftMatchesScan(t *testing.T) {
	scan := func(cuts []Cut, c int64) int64 {
		var off int64
		for _, cut := range cuts {
			if cut.Pos <= c {
				off += cut.Width
			}
		}
		return c + off
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		cuts := make([]Cut, rng.Intn(12))
		for k := range cuts {
			cuts[k] = Cut{Pos: rng.Int63n(40) - 20, Width: 1 + rng.Int63n(50)}
			if k > 0 && rng.Intn(3) == 0 {
				cuts[k].Pos = cuts[rng.Intn(k)].Pos // a repeated position
			}
		}
		probes := []int64{-1 << 62, 1 << 62}
		for _, c := range cuts {
			probes = append(probes, c.Pos-1, c.Pos, c.Pos+1)
		}
		for range 10 {
			probes = append(probes, rng.Int63n(60)-30)
		}
		cs := newCutShift(cuts)
		for _, c := range probes {
			if got, want := cs.shift(c), scan(cuts, c); got != want {
				t.Fatalf("cuts %+v: shift(%d) = %d, want %d", cuts, c, got, want)
			}
		}
	}
}
