package geo

import "math"

// Grid is a uniform spatial hash used by the radio medium to cache the
// entities near a transmitter without rescanning the whole world. It
// stores no entries: the caller keeps the positions and reports each
// move (Move), and the grid keeps only the cover registrations the
// moves must dirty. Grid is purely computational.
//
// # Covers and block registration
//
// A caller that caches the result of a spatial query registers a Cover
// over the cells the query could touch (CoverFor), tests candidate
// positions against it (InCover), and gates reuse of the cached result
// on CoverValid. A cover is marked dirty exactly when a move crosses a
// cell boundary such that exactly one side of the move lies in the
// cover's cell box; a move inside one cell, or between two cells of the
// same box, leaves it clean. CoverValid is then an O(1) flag check.
// Entries that appear or vanish are the caller's to track.
//
// Covers register on 4×4-cell blocks, not on every cell: the grid keeps,
// per block, the covers whose cell box overlaps the block. A move walks
// the covers of the blocks of its two cells, so a cover registers once
// per block it overlaps instead of once per cell: about a sixteenth as
// many registrations for a large box.
type Grid struct {
	cell float64

	// blocks lists, per 4×4-cell block (see blockShift), the live
	// covers whose cell box overlaps the block.
	blocks map[cellKey][]watcherRef
}

// blockShift sets the block edge: blocks are 1<<blockShift cells wide.
const blockShift = 2

// watcherRef is one cover's registration in a block's watcher list. slot
// indexes the cover's own slots entry for this block, so a swap-remove
// in the list can fix the moved registration's back-reference in O(1).
type watcherRef struct {
	cover *Cover
	slot  int
}

type cellKey struct {
	X, Y int
}

// blockOf returns the block holding cell k; the arithmetic shift floors
// negative coordinates too.
func blockOf(k cellKey) cellKey {
	return cellKey{X: k.X >> blockShift, Y: k.Y >> blockShift}
}

// DefaultGridCell is the cell size (metres) used when none is configured.
// It is on the order of a dense indoor radio neighbourhood, so a typical
// range query touches a handful of cells.
const DefaultGridCell = 25.0

// NewGrid creates an empty grid with the given cell size in metres.
// Non-positive sizes fall back to DefaultGridCell.
func NewGrid(cellSize float64) *Grid {
	if cellSize <= 0 {
		cellSize = DefaultGridCell
	}
	return &Grid{
		cell:   cellSize,
		blocks: make(map[cellKey][]watcherRef),
	}
}

func (g *Grid) keyFor(p Point) cellKey {
	return cellKey{X: int(math.Floor(p.X / g.cell)), Y: int(math.Floor(p.Y / g.cell))}
}

// Move records that an entry moved from one point to another. A move
// within one cell dirties no cover. A cross-cell move dirties only the
// covers whose box holds exactly one of the two cells: a cover holding
// both keeps its cached result, since the entry never left the box.
// Such a cover is registered on that side's block, so walking both
// blocks finds every one.
func (g *Grid) Move(from, to Point) {
	kf, kt := g.keyFor(from), g.keyFor(to)
	if kf == kt {
		return
	}
	bf, bt := blockOf(kf), blockOf(kt)
	for _, ref := range g.blocks[bf] {
		if c := ref.cover; c.containsCell(kf) != c.containsCell(kt) {
			c.dirty = true
		}
	}
	if bt == bf {
		return
	}
	for _, ref := range g.blocks[bt] {
		if c := ref.cover; c.containsCell(kf) != c.containsCell(kt) {
			c.dirty = true
		}
	}
}

// containsCell reports whether k lies inside the cover's cell box.
func (c *Cover) containsCell(k cellKey) bool {
	return k.X >= c.lo.X && k.X <= c.hi.X && k.Y >= c.lo.Y && k.Y <= c.hi.Y
}

// Cover is a live registration over the box of cells a circular query
// covers. Build one with CoverFor next to the query, select the query's
// entries with InCover, cache the result, and gate reuse on CoverValid:
// the cache stays valid exactly as long as no entry has moved into or
// out of the covered cells. Invalidation is push-based — a move marks
// the covers of its blocks whose box holds exactly one of its cells —
// so CoverValid is O(1). Release a cover that will not be revalidated
// again so its block registrations are dropped.
type Cover struct {
	anchor   cellKey // cell of the center the cover was built for
	lo, hi   cellKey // inclusive cell box, one-cell margin included
	radius   float64
	dirty    bool
	released bool
	// slots mirrors the cover's registration in each overlapped block's
	// watcher list; slot indices are kept current under swap-removal.
	slots []coverSlot
}

// coverSlot records where in block key's watcher list this cover sits.
type coverSlot struct {
	key   cellKey
	index int
}

// CoverFor registers a cover over the cells a circle of the given
// radius around center could touch, with a one-cell margin so the cover
// remains a superset of the circle for any center within the same grid
// cell: a cache keyed on a Cover survives moves of the query origin
// that stay inside its cell. The radius must be finite and non-negative
// (clamp or branch before calling; an unbounded query has no cell set
// to cover).
func (g *Grid) CoverFor(center Point, radius float64) *Cover {
	if radius < 0 || math.IsInf(radius, 1) || math.IsNaN(radius) {
		panic("geo: CoverFor radius must be finite and non-negative")
	}
	lo := g.keyFor(Point{center.X - radius, center.Y - radius})
	hi := g.keyFor(Point{center.X + radius, center.Y + radius})
	c := &Cover{
		anchor: g.keyFor(center),
		lo:     cellKey{X: lo.X - 1, Y: lo.Y - 1},
		hi:     cellKey{X: hi.X + 1, Y: hi.Y + 1},
		radius: radius,
	}
	blo, bhi := blockOf(c.lo), blockOf(c.hi)
	c.slots = make([]coverSlot, 0, (bhi.X-blo.X+1)*(bhi.Y-blo.Y+1))
	for by := blo.Y; by <= bhi.Y; by++ {
		for bx := blo.X; bx <= bhi.X; bx++ {
			k := cellKey{X: bx, Y: by}
			list := g.blocks[k]
			c.slots = append(c.slots, coverSlot{key: k, index: len(list)})
			g.blocks[k] = append(list, watcherRef{cover: c, slot: len(c.slots) - 1})
		}
	}
	return c
}

// InCover reports whether p lies in one of the cover's cells: the
// cell-conservative superset of the covered circle that a cached query
// result holds.
func (g *Grid) InCover(c *Cover, p Point) bool { return c.containsCell(g.keyFor(p)) }

// CoverValid reports whether the cover still describes the grid: the
// query origin is still in the cell the cover was anchored to and no
// move has crossed into or out of the covered cells since CoverFor or
// the last Refresh. The check is O(1); the bookkeeping rides on moves
// instead.
func (g *Grid) CoverValid(c *Cover, center Point) bool {
	return c != nil && !c.released && !c.dirty && g.keyFor(center) == c.anchor
}

// Anchored reports whether the cover's registration can be reused for a
// query from center with the given radius: same anchor cell, same
// radius, not released — regardless of dirtiness. Callers re-running a
// query over an Anchored cover should Refresh it instead of paying
// Release + CoverFor re-registration.
func (g *Grid) Anchored(c *Cover, center Point, radius float64) bool {
	return c != nil && !c.released && c.radius == radius && g.keyFor(center) == c.anchor
}

// Refresh clears a cover's dirty mark; call it exactly when re-running
// the covered query, whose fresh result the existing registration then
// guards again. Refreshing a released cover is a no-op — it stays
// invalid.
func (g *Grid) Refresh(c *Cover) {
	if c != nil && !c.released {
		c.dirty = false
	}
}

// Watchers returns the total number of live cover registrations across
// all blocks — an introspection hook for registration-leak tests. The
// radio package's oracle fuzz target calls it on the medium's grid, so
// it cannot live in this package's test files.
//
//aroma:kept the radio medium's oracle fuzz target checks grid registrations with it
func (g *Grid) Watchers() int {
	n := 0
	for _, list := range g.blocks {
		n += len(list)
	}
	return n
}

// Release drops the cover's block registrations; the cover is
// permanently invalid afterwards. Callers replacing a cached cover must
// release the old one, or the stale registrations keep receiving dirty
// marks forever. Releasing nil or an already-released cover is a no-op.
func (g *Grid) Release(c *Cover) {
	if c == nil || c.released {
		return
	}
	c.released = true
	for _, s := range c.slots {
		list := g.blocks[s.key]
		last := len(list) - 1
		moved := list[last]
		list[s.index] = moved
		moved.cover.slots[moved.slot].index = s.index
		list = list[:last]
		if len(list) == 0 {
			delete(g.blocks, s.key)
		} else {
			g.blocks[s.key] = list
		}
	}
	c.slots = nil
}
