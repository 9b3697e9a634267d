package geo

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// collectCircle runs a circular query the way the radio medium does:
// register a cover, keep the entries of pos in its cells that lie within
// r of c (boundary inclusive), release the cover. The grid stores no
// entries, so the caller's pos lists them. The result is ID-ascending.
func collectCircle(g *Grid, pos map[int]Point, c Point, r float64) []int {
	cover := g.CoverFor(c, r)
	defer g.Release(cover)
	var out []int
	for id, p := range pos {
		dx, dy := p.X-c.X, p.Y-c.Y
		if g.InCover(cover, p) && dx*dx+dy*dy <= r*r {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

func TestGridCoverQuery(t *testing.T) {
	g := NewGrid(10)
	pos := map[int]Point{1: Pt(5, 5), 2: Pt(50, 50), 3: Pt(7, 5)}
	got := collectCircle(g, pos, Pt(5, 5), 5)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("near query = %v, want [1 3]", got)
	}
	if got := collectCircle(g, pos, Pt(200, 200), 10); len(got) != 0 {
		t.Fatalf("empty region query = %v", got)
	}
}

func TestGridBoundaryInclusive(t *testing.T) {
	g := NewGrid(10)
	if got := collectCircle(g, map[int]Point{1: Pt(10, 0)}, Pt(0, 0), 10); len(got) != 1 {
		t.Fatalf("boundary point excluded: %v", got)
	}
}

func TestGridNegativeCoordinates(t *testing.T) {
	g := NewGrid(10)
	got := collectCircle(g, map[int]Point{1: Pt(-5, -5), 2: Pt(-15, -15)}, Pt(-5, -5), 6)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("negative-coordinate query = %v, want [1]", got)
	}
}

// TestGridDeterministicVisitOrder: which covers a sequence of moves
// dirties must not depend on the order the covers were registered and
// released in, which is the order Move visits a block's watchers.
func TestGridDeterministicVisitOrder(t *testing.T) {
	const n = 200
	pos := make([]Point, n)
	for id := range pos {
		pos[id] = Pt(float64(id%17)*7, float64(id%13)*9)
	}
	build := func(seed int64) []bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewGrid(10)
		covers := make([]*Cover, n)
		for _, id := range rng.Perm(n) {
			covers[id] = g.CoverFor(pos[id], float64(id%30))
		}
		for _, id := range rng.Perm(n) {
			if id%7 == 0 {
				g.Release(covers[id])
			}
		}
		for id := 0; id < n; id += 40 {
			g.Move(pos[id], Pt(float64(id%11)*13, float64(id%7)*17))
		}
		valid := make([]bool, n)
		for id, c := range covers {
			valid[id] = g.CoverValid(c, pos[id])
		}
		return valid
	}
	a, b := build(1), build(2)
	clean := 0
	for id := range a {
		if a[id] != b[id] {
			t.Fatalf("cover %d: valid = %v after one registration order, %v after another", id, a[id], b[id])
		}
		if a[id] {
			clean++
		}
	}
	if clean == 0 || clean == n {
		t.Fatalf("%d of %d covers clean, want some of each", clean, n)
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
	pos := map[int]Point{}
	for id := 1; id <= 500; id++ {
		p := Pt(rng.Float64()*400-200, rng.Float64()*400-200)
		pos[id] = p
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
		got := collectCircle(g, pos, c, r)
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

// TestGridCellGenerations: a move dirties exactly the covers whose cell
// box holds one of its cells but not the other. a spans cells [-1..1]
// and b cells [2..4] on x (both [-1..1] on y); the entry starts in cells
// 0..2, one 4×4 block that both covers overlap, and leaves through b's
// far edge.
func TestGridCellGenerations(t *testing.T) {
	g := NewGrid(10)
	a, b := g.CoverFor(Pt(5, 5), 0), g.CoverFor(Pt(35, 5), 0)
	check := func(step string, wantA, wantB bool) {
		t.Helper()
		if gotA, gotB := !g.CoverValid(a, Pt(5, 5)), !g.CoverValid(b, Pt(35, 5)); gotA != wantA || gotB != wantB {
			t.Fatalf("%s: dirty = %v,%v, want %v,%v", step, gotA, gotB, wantA, wantB)
		}
		g.Refresh(a)
		g.Refresh(b)
	}
	g.Move(Pt(5, 5), Pt(7, 7))
	check("within-cell move", false, false)
	g.Move(Pt(7, 7), Pt(15, 5))
	check("crossing inside a's box", false, false)
	g.Move(Pt(15, 5), Pt(25, 5))
	check("crossing from a's box into b's", true, true)
	g.Move(Pt(25, 5), Pt(35, 5))
	check("crossing inside b's box", false, false)
	g.Move(Pt(35, 5), Pt(55, 5))
	check("crossing out of b's box", false, true)
}

func TestCoverDirtyTracking(t *testing.T) {
	g := NewGrid(10)
	c := g.CoverFor(Pt(5, 5), 15) // box spans cells [-2..3] on each axis
	center := Pt(5, 5)
	if !g.CoverValid(c, center) {
		t.Fatal("fresh cover invalid")
	}
	// Within-cell move inside the cover: clean.
	g.Move(Pt(25, 5), Pt(27, 7))
	if !g.CoverValid(c, center) {
		t.Fatal("within-cell move dirtied the cover")
	}
	// Cell crossing far outside the cover: clean.
	g.Move(Pt(95, 95), Pt(85, 85))
	if !g.CoverValid(c, center) {
		t.Fatal("far crossing dirtied the cover")
	}
	// Crossing between two cells both inside the cover preserves the
	// union: clean.
	g.Move(Pt(27, 7), Pt(27, 17))
	if !g.CoverValid(c, center) {
		t.Fatal("union-preserving crossing dirtied the cover")
	}
	// Crossing out of the cover: dirty.
	g.Move(Pt(27, 17), Pt(45, 17))
	if g.CoverValid(c, center) {
		t.Fatal("crossing out of the cover left it clean")
	}
	// Refresh restores validity against the current state.
	g.Refresh(c)
	if !g.CoverValid(c, center) {
		t.Fatal("refreshed cover still invalid")
	}
	// Crossing into the cover: dirty again.
	g.Move(Pt(85, 85), Pt(15, 15))
	if g.CoverValid(c, center) {
		t.Fatal("crossing into the cover left it clean")
	}
	// An anchor move alone invalidates, even while clean.
	g.Refresh(c)
	if g.CoverValid(c, Pt(15, 5)) {
		t.Fatal("cover valid for a center outside its anchor cell")
	}
}

func TestCoverAnchoredAndRelease(t *testing.T) {
	g := NewGrid(10)
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
	covers := make([]*Cover, 5)
	for i := range covers {
		covers[i] = g.CoverFor(Pt(5, 5), 15)
	}
	g.Release(covers[1])
	g.Release(covers[3])
	g.Move(Pt(95, 95), Pt(5, 7)) // a crossing into a shared cell
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

func TestCoverIsSupersetOfCircle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := NewGrid(20)
	pos := make(map[int]Point)
	for id := 1; id <= 300; id++ {
		pos[id] = Pt(rng.Float64()*400-200, rng.Float64()*400-200)
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
		for id, p := range pos {
			inCover[id] = g.InCover(cover, p)
		}
		for _, id := range circle(center, radius) {
			if !inCover[id] {
				t.Fatalf("trial %d: circle entry %d outside the cover", trial, id)
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

// TestCoverBlockRegistrationProperty plays random moves of 60 points,
// with covers built, refreshed and released in between, over negative
// and positive coordinates on a 7 m grid, so cover boxes rarely line up
// with the 4-cell blocks. The test keeps its own per-cell dirty
// predicate for every live cover: a move dirties it when exactly one of
// its two cells lies in the cover's box. After every operation each
// cover's CoverValid must equal that predicate; once every cover is
// released no registration may remain.
func TestCoverBlockRegistrationProperty(t *testing.T) {
	const cell = 7.0
	rng := rand.New(rand.NewSource(5))
	g := NewGrid(cell)
	cellOf := func(p Point) [2]int {
		return [2]int{int(math.Floor(p.X / cell)), int(math.Floor(p.Y / cell))}
	}
	type tracked struct {
		c      *Cover
		center Point
		x0, x1 int // the box the test computes itself, margin included
		y0, y1 int
		dirty  bool
	}
	in := func(tc *tracked, k [2]int) bool {
		return k[0] >= tc.x0 && k[0] <= tc.x1 && k[1] >= tc.y0 && k[1] <= tc.y1
	}
	randPt := func() Point { return Pt(rng.Float64()*240-120, rng.Float64()*240-120) }
	var covers []*tracked
	pos := make([]Point, 60)
	for i := range pos {
		pos[i] = randPt()
	}
	for op := 0; op < 4000; op++ {
		switch r := rng.Intn(10); {
		case r < 2 || len(covers) == 0: // new cover
			center, radius := randPt(), rng.Float64()*40
			lo, hi := cellOf(Pt(center.X-radius, center.Y-radius)), cellOf(Pt(center.X+radius, center.Y+radius))
			covers = append(covers, &tracked{c: g.CoverFor(center, radius), center: center,
				x0: lo[0] - 1, x1: hi[0] + 1, y0: lo[1] - 1, y1: hi[1] + 1})
		case r == 2: // release one
			i := rng.Intn(len(covers))
			g.Release(covers[i].c)
			covers = append(covers[:i], covers[i+1:]...)
		case r == 3: // refresh one
			tc := covers[rng.Intn(len(covers))]
			g.Refresh(tc.c)
			tc.dirty = false
		default: // a move; half are short, so many stay in their cell
			// or cross into a neighbour
			id := rng.Intn(len(pos))
			old, p := pos[id], randPt()
			if rng.Intn(2) == 0 {
				p = Pt(old.X+rng.Float64()*16-8, old.Y+rng.Float64()*16-8)
			}
			g.Move(old, p)
			pos[id] = p
			from, to := cellOf(old), cellOf(p)
			for _, tc := range covers {
				tc.dirty = tc.dirty || (from != to && in(tc, from) != in(tc, to))
			}
		}
		for i, tc := range covers {
			if got := g.CoverValid(tc.c, tc.center); got != !tc.dirty {
				t.Fatalf("op %d: cover %d (cells x %d..%d, y %d..%d) valid = %v, per-cell predicate says dirty = %v",
					op, i, tc.x0, tc.x1, tc.y0, tc.y1, got, tc.dirty)
			}
		}
	}
	for _, tc := range covers {
		g.Release(tc.c)
	}
	if w := g.Watchers(); w != 0 {
		t.Fatalf("%d block registrations left after every cover was released", w)
	}
}

// BenchmarkGridCoverDense churns covers the way a dense radio world
// builds them: 300 points on a 12×12-cell occupied grid (50 m cells,
// the densitysweep layout), and per op every one of 300 covers of
// 200 m radius, one around each point, is released and registered
// again, followed by one cross-cell move and back that walk a block's
// watchers.
func BenchmarkGridCoverDense(b *testing.B) {
	const n, side = 300, 600.0
	rng := rand.New(rand.NewSource(3))
	g := NewGrid(50)
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Pt(rng.Float64()*side, rng.Float64()*side)
	}
	covers := make([]*Cover, n)
	churn := func(op int) {
		for i, p := range pts {
			g.Release(covers[i])
			covers[i] = g.CoverFor(p, 200)
		}
		i := op % n
		away := Pt(math.Mod(pts[i].X+60, side), pts[i].Y)
		g.Move(pts[i], away)
		g.Move(away, pts[i])
	}
	churn(0)
	b.ReportAllocs()
	b.ResetTimer()
	for op := 0; op < b.N; op++ {
		churn(op)
	}
}
