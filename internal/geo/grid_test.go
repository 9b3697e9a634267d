package geo

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// collectCircle runs a circular query the way the radio medium does:
// register a cover, walk its cells, keep the entries within r of c
// (boundary inclusive), release the cover.
func collectCircle(g *Grid, c Point, r float64) []int {
	cover := g.CoverFor(c, r)
	defer g.Release(cover)
	var out []int
	g.VisitCover(cover, func(id int, p Point) {
		dx, dy := p.X-c.X, p.Y-c.Y
		if dx*dx+dy*dy <= r*r {
			out = append(out, id)
		}
	})
	return out
}

func TestGridInsertQuery(t *testing.T) {
	g := NewGrid(10)
	g.Insert(1, Pt(5, 5))
	g.Insert(2, Pt(50, 50))
	g.Insert(3, Pt(7, 5))
	if g.Len() != 3 {
		t.Fatalf("len = %d", g.Len())
	}
	got := collectCircle(g, Pt(5, 5), 5)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("near query = %v, want [1 3]", got)
	}
	if got := collectCircle(g, Pt(200, 200), 10); len(got) != 0 {
		t.Fatalf("empty region query = %v", got)
	}
}

func TestGridBoundaryInclusive(t *testing.T) {
	g := NewGrid(10)
	g.Insert(1, Pt(10, 0))
	if got := collectCircle(g, Pt(0, 0), 10); len(got) != 1 {
		t.Fatalf("boundary point excluded: %v", got)
	}
}

func TestGridMoveAndRemove(t *testing.T) {
	g := NewGrid(10)
	g.Insert(1, Pt(5, 5))
	g.Move(1, Pt(95, 95))
	if got := collectCircle(g, Pt(5, 5), 8); len(got) != 0 {
		t.Fatalf("stale entry after move: %v", got)
	}
	if got := collectCircle(g, Pt(95, 95), 8); len(got) != 1 {
		t.Fatalf("moved entry not found: %v", got)
	}
	// Move within the same cell.
	g.Move(1, Pt(94, 94))
	if got := collectCircle(g, Pt(95, 95), 8); len(got) != 1 {
		t.Fatalf("intra-cell move lost entry: %v", got)
	}
	g.Remove(1)
	if g.Len() != 0 || len(collectCircle(g, Pt(94, 94), 8)) != 0 {
		t.Fatal("entry survived Remove")
	}
	g.Remove(1) // no-op
}

func TestGridNegativeCoordinates(t *testing.T) {
	g := NewGrid(10)
	g.Insert(1, Pt(-5, -5))
	g.Insert(2, Pt(-15, -15))
	got := collectCircle(g, Pt(-5, -5), 6)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("negative-coordinate query = %v, want [1]", got)
	}
}

func TestGridDeterministicVisitOrder(t *testing.T) {
	build := func(seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		g := NewGrid(10)
		ids := rng.Perm(200)
		for _, id := range ids {
			g.Insert(id+1, Pt(float64(id%17)*7, float64(id%13)*9))
		}
		return collectCircle(g, Pt(60, 60), 55)
	}
	a := build(1)
	b := build(1)
	if len(a) == 0 {
		t.Fatal("query found nothing")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("visit order differs at %d: %v vs %v", i, a, b)
		}
	}
}

func TestGridMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := NewGrid(23)
	type entry struct {
		id int
		p  Point
	}
	var all []entry
	for id := 1; id <= 500; id++ {
		p := Pt(rng.Float64()*400-200, rng.Float64()*400-200)
		g.Insert(id, p)
		all = append(all, entry{id, p})
	}
	for trial := 0; trial < 50; trial++ {
		c := Pt(rng.Float64()*400-200, rng.Float64()*400-200)
		r := rng.Float64() * 150
		var want []int
		for _, e := range all {
			if e.p.Dist(c) <= r {
				want = append(want, e.id)
			}
		}
		sort.Ints(want)
		got := collectCircle(g, c, r)
		sort.Ints(got)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d entries, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: mismatch at %d", trial, i)
			}
		}
	}
}

func TestVisitCoverSparseBoxKeepsRowMajorOrder(t *testing.T) {
	// A cover spanning far more cells than are occupied takes the
	// sparse path, which must visit in the dense walk's order: cells
	// row-major, IDs ascending within a cell.
	g := NewGrid(10)
	for id := 1; id <= 20; id++ {
		g.Insert(id, Pt(float64(21-id)*10, float64(id%3)*10))
	}
	g.Insert(21, Pt(11, 21)) // shares a cell with id 20
	cover := g.CoverFor(Pt(100, 10), 300)
	defer g.Release(cover)
	if cover.Cells() <= len(g.cells) {
		t.Fatalf("cover spans %d cells for %d occupied: not the sparse path", cover.Cells(), len(g.cells))
	}
	var got []Point
	var ids []int
	g.VisitCover(cover, func(id int, p Point) {
		got = append(got, p)
		ids = append(ids, id)
	})
	if len(got) != 21 {
		t.Fatalf("sparse cover visit found %d entries, want 21", len(got))
	}
	for i := 1; i < len(got); i++ {
		a, b := g.keyFor(got[i-1]), g.keyFor(got[i])
		if a.Y > b.Y || (a.Y == b.Y && a.X > b.X) || (a == b && ids[i-1] > ids[i]) {
			t.Fatalf("visit %d out of row-major order: %v then %v (ids %d, %d)", i, got[i-1], got[i], ids[i-1], ids[i])
		}
	}
}

func TestGridMoveUnknownIDInserts(t *testing.T) {
	// Move on an ID the grid has never seen is an explicit insert.
	g := NewGrid(10)
	g.Move(7, Pt(42, 42))
	if g.Len() != 1 {
		t.Fatalf("len after Move-insert = %d, want 1", g.Len())
	}
	if got := collectCircle(g, Pt(42, 42), 1); len(got) != 1 || got[0] != 7 {
		t.Fatalf("Move-inserted entry not found: %v", got)
	}
	// And it bumps the destination cell's generation like any insert.
	if g.gen[g.keyFor(Pt(42, 42))] != 1 {
		t.Fatalf("Move-insert did not bump the destination cell generation: %v", g.gen)
	}
}

func TestGridKeyForNegativeAndCellEdge(t *testing.T) {
	g := NewGrid(10)
	cases := []struct {
		p    Point
		x, y int
	}{
		{Pt(0, 0), 0, 0},
		{Pt(9.999, 9.999), 0, 0},
		{Pt(10, 10), 1, 1}, // cell edges belong to the higher cell
		{Pt(-0.001, 0), -1, 0},
		{Pt(-10, -10), -1, -1},
		{Pt(-10.001, -10.001), -2, -2},
	}
	for _, c := range cases {
		if k := g.keyFor(c.p); k.X != c.x || k.Y != c.y {
			t.Errorf("keyFor(%v) = (%d,%d), want (%d,%d)", c.p, k.X, k.Y, c.x, c.y)
		}
	}
}

func TestGridCellGenerations(t *testing.T) {
	g := NewGrid(10)
	k00 := g.keyFor(Pt(5, 5))
	k10 := g.keyFor(Pt(15, 5))
	g.Insert(1, Pt(5, 5))
	if g.gen[k00] != 1 {
		t.Fatalf("insert gen = %d, want 1", g.gen[k00])
	}
	g.Move(1, Pt(7, 7)) // within-cell move: free
	if g.gen[k00] != 1 || g.genTotal != 1 {
		t.Fatalf("within-cell move bumped a generation: gen=%d total=%d", g.gen[k00], g.genTotal)
	}
	g.Move(1, Pt(15, 5)) // cell crossing: both sides bump
	if g.gen[k00] != 2 || g.gen[k10] != 1 {
		t.Fatalf("crossing gens = %d,%d, want 2,1", g.gen[k00], g.gen[k10])
	}
	g.Remove(1)
	if g.gen[k10] != 2 {
		t.Fatalf("remove gen = %d, want 2", g.gen[k10])
	}
}

func TestCoverDirtyTracking(t *testing.T) {
	g := NewGrid(10)
	g.Insert(1, Pt(5, 5))
	g.Insert(2, Pt(25, 5))
	g.Insert(3, Pt(95, 95))
	c := g.CoverFor(Pt(5, 5), 15) // box spans cells [-2..3] on each axis
	center := Pt(5, 5)
	if !g.CoverValid(c, center) {
		t.Fatal("fresh cover invalid")
	}
	// Within-cell move inside the cover: clean.
	g.Move(2, Pt(27, 7))
	if !g.CoverValid(c, center) {
		t.Fatal("within-cell move dirtied the cover")
	}
	// Cell crossing far outside the cover: clean.
	g.Move(3, Pt(85, 85))
	if !g.CoverValid(c, center) {
		t.Fatal("far crossing dirtied the cover")
	}
	// Crossing between two cells both inside the cover preserves the
	// union: clean.
	g.Move(2, Pt(27, 17))
	if !g.CoverValid(c, center) {
		t.Fatal("union-preserving crossing dirtied the cover")
	}
	// Crossing out of the cover: dirty.
	g.Move(2, Pt(45, 17))
	if g.CoverValid(c, center) {
		t.Fatal("crossing out of the cover left it clean")
	}
	// Refresh restores validity against the current state.
	g.Refresh(c)
	if !g.CoverValid(c, center) {
		t.Fatal("refreshed cover still invalid")
	}
	// Insert into a covered cell: dirty again.
	g.Insert(4, Pt(15, 15))
	if g.CoverValid(c, center) {
		t.Fatal("insert into a covered cell left the cover clean")
	}
	g.Refresh(c)
	// Remove from a covered cell: dirty.
	g.Remove(4)
	if g.CoverValid(c, center) {
		t.Fatal("remove from a covered cell left the cover clean")
	}
	// An anchor move alone invalidates, even while clean.
	g.Refresh(c)
	if g.CoverValid(c, Pt(15, 5)) {
		t.Fatal("cover valid for a center outside its anchor cell")
	}
}

func TestCoverAnchoredAndRelease(t *testing.T) {
	g := NewGrid(10)
	g.Insert(1, Pt(5, 5))
	c := g.CoverFor(Pt(5, 5), 15)
	if !g.Anchored(c, Pt(7, 7), 15) {
		t.Fatal("cover not anchored for a same-cell center")
	}
	if g.Anchored(c, Pt(15, 5), 15) {
		t.Fatal("cover anchored for a different cell")
	}
	if g.Anchored(c, Pt(7, 7), 20) {
		t.Fatal("cover anchored for a different radius")
	}
	g.Release(c)
	if g.Anchored(c, Pt(7, 7), 15) || g.CoverValid(c, Pt(7, 7)) {
		t.Fatal("released cover still usable")
	}
	g.Refresh(c) // no-op on released covers
	if g.CoverValid(c, Pt(7, 7)) {
		t.Fatal("refresh revived a released cover")
	}
	g.Release(c) // double release is a no-op
	g.Release(nil)
}

func TestCoverWatcherSwapRemoval(t *testing.T) {
	// Several covers over the same cells; releasing one in the middle
	// must keep dirty delivery intact for the others (the swap-removal
	// back-reference fix).
	g := NewGrid(10)
	g.Insert(1, Pt(5, 5))
	covers := make([]*Cover, 5)
	for i := range covers {
		covers[i] = g.CoverFor(Pt(5, 5), 15)
	}
	g.Release(covers[1])
	g.Release(covers[3])
	g.Insert(2, Pt(5, 7)) // membership change in a shared cell
	for _, i := range []int{0, 2, 4} {
		if g.CoverValid(covers[i], Pt(5, 5)) {
			t.Fatalf("cover %d missed the dirty mark after sibling releases", i)
		}
	}
}

func TestCoverForRejectsUnboundedRadius(t *testing.T) {
	g := NewGrid(10)
	for _, r := range []float64{math.Inf(1), math.NaN(), -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CoverFor(%v) did not panic", r)
				}
			}()
			g.CoverFor(Pt(0, 0), r)
		}()
	}
}

func TestVisitCoverIsSupersetOfCircle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := NewGrid(20)
	pos := make(map[int]Point)
	for id := 1; id <= 300; id++ {
		p := Pt(rng.Float64()*400-200, rng.Float64()*400-200)
		g.Insert(id, p)
		pos[id] = p
	}
	// circle lists, by brute force, the entries within radius of c.
	circle := func(c Point, radius float64) []int {
		var out []int
		for id, p := range pos {
			if p.Dist(c) <= radius {
				out = append(out, id)
			}
		}
		return out
	}
	for trial := 0; trial < 25; trial++ {
		center := Pt(rng.Float64()*400-200, rng.Float64()*400-200)
		radius := rng.Float64() * 120
		cover := g.CoverFor(center, radius)
		inCover := make(map[int]bool)
		g.VisitCover(cover, func(id int, _ Point) { inCover[id] = true })
		for _, id := range circle(center, radius) {
			if !inCover[id] {
				t.Fatalf("trial %d: circle entry %d missing from cover visit", trial, id)
			}
		}
		// The superset property must hold for any center within the
		// anchor cell (the one-cell margin contract).
		shifted := Pt(center.X+19.9*(rng.Float64()-0.5), center.Y+19.9*(rng.Float64()-0.5))
		if g.keyFor(shifted) == cover.anchor {
			for _, id := range circle(shifted, radius) {
				if !inCover[id] {
					t.Fatalf("trial %d: margin violated for shifted center", trial)
				}
			}
		}
		g.Release(cover)
	}
}
