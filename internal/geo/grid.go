package geo

import (
	"math"
	"sort"
)

// Grid is a uniform spatial hash over points, used by the radio medium to
// find the entities near a transmitter without scanning the whole world.
//
// Entries are identified by integer IDs. All iteration is deterministic:
// VisitCover walks cells in row-major order and the IDs within a cell in
// ascending order, so two identical runs observe entries identically.
// Grid is purely computational and safe to rebuild at any time.
//
// # Cell generations
//
// Every cell carries a generation counter that is bumped whenever the
// cell's membership changes: an entry is inserted into it, removed from
// it, or moves across its boundary. A move that stays inside one cell
// bumps nothing. Callers that cache the result of a spatial query can
// register a Cover over the cells the query touched (CoverFor) and gate
// reuse on CoverValid, which observes those cells' generation bumps as
// an O(1) dirty flag — the basis of the radio medium's cell-granular
// candidate-cache invalidation.
type Grid struct {
	cell  float64
	cells map[cellKey][]int
	pos   map[int]Point

	// gen holds the per-cell membership generation; absent cells are at
	// generation 0. genTotal sums every bump.
	gen      map[cellKey]uint64
	genTotal uint64

	// watchers lists, per cell, the live Covers that include the cell.
	// A membership change delivers the generation bump to them as a
	// dirty flag, so CoverValid is O(1) instead of a walk over the
	// cover's cells.
	watchers map[cellKey][]watcherRef
}

// watcherRef is one cover's registration in a cell's watcher list. slot
// indexes the cover's own slots entry for this cell, so a swap-remove in
// the list can fix the moved registration's back-reference in O(1).
type watcherRef struct {
	cover *Cover
	slot  int
}

type cellKey struct {
	X, Y int
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
		cell:     cellSize,
		cells:    make(map[cellKey][]int),
		pos:      make(map[int]Point),
		gen:      make(map[cellKey]uint64),
		watchers: make(map[cellKey][]watcherRef),
	}
}

// CellSize returns the grid's cell edge length in metres.
func (g *Grid) CellSize() float64 { return g.cell }

// Len returns the number of entries in the grid.
func (g *Grid) Len() int { return len(g.pos) }

func (g *Grid) keyFor(p Point) cellKey {
	return cellKey{X: int(math.Floor(p.X / g.cell)), Y: int(math.Floor(p.Y / g.cell))}
}

// Insert adds an entry; inserting an existing ID moves it instead.
func (g *Grid) Insert(id int, p Point) {
	if _, ok := g.pos[id]; ok {
		g.Move(id, p)
		return
	}
	g.pos[id] = p
	g.insertCell(g.keyFor(p), id)
}

func (g *Grid) insertCell(k cellKey, id int) {
	g.cellListInsert(k, id)
	g.bumpCell(k)
}

func (g *Grid) removeCell(k cellKey, id int) {
	g.cellListRemove(k, id)
	g.bumpCell(k)
}

func (g *Grid) cellListInsert(k cellKey, id int) {
	ids := g.cells[k]
	i := sort.SearchInts(ids, id)
	ids = append(ids, 0)
	copy(ids[i+1:], ids[i:])
	ids[i] = id
	g.cells[k] = ids
}

func (g *Grid) cellListRemove(k cellKey, id int) {
	ids := g.cells[k]
	i := sort.SearchInts(ids, id)
	if i >= len(ids) || ids[i] != id {
		return
	}
	ids = append(ids[:i], ids[i+1:]...)
	if len(ids) == 0 {
		delete(g.cells, k)
	} else {
		g.cells[k] = ids
	}
}

// bumpCell records a membership change in cell k: the cell's generation
// advances and every cover watching the cell is marked dirty.
func (g *Grid) bumpCell(k cellKey) {
	g.gen[k]++
	g.genTotal++
	for _, ref := range g.watchers[k] {
		ref.cover.dirty = true
	}
}

// moveBump delivers a cross-cell move to watchers. Both cells'
// generations advance, but a cover containing both cells keeps its
// cached union — the entry never left the cover's box — so only covers
// seeing exactly one side are marked dirty. Push invalidation is
// deliberately finer than raw generation comparison here: an observer
// of both generations would self-invalidate on a move that cannot have
// changed its query result.
func (g *Grid) moveBump(from, to cellKey) {
	g.gen[from]++
	g.gen[to]++
	g.genTotal += 2
	for _, ref := range g.watchers[from] {
		if !ref.cover.containsCell(to) {
			ref.cover.dirty = true
		}
	}
	for _, ref := range g.watchers[to] {
		if !ref.cover.containsCell(from) {
			ref.cover.dirty = true
		}
	}
}

// containsCell reports whether k lies inside the cover's cell box.
func (c *Cover) containsCell(k cellKey) bool {
	return k.X >= c.lo.X && k.X <= c.hi.X && k.Y >= c.lo.Y && k.Y <= c.hi.Y
}

// Move updates an entry's position. Moving an ID the grid has never seen
// is an explicit insert — the contract mobility code relies on, so a
// mover attached before its entity reaches the index still lands it in
// the right cell. A move within one cell updates only the stored
// position: cell membership, and therefore every cell generation, is
// untouched.
func (g *Grid) Move(id int, p Point) {
	old, ok := g.pos[id]
	if !ok {
		g.Insert(id, p)
		return
	}
	from, to := g.keyFor(old), g.keyFor(p)
	g.pos[id] = p
	if from == to {
		return
	}
	g.cellListRemove(from, id)
	g.cellListInsert(to, id)
	g.moveBump(from, to)
}

// Remove deletes an entry; removing an unknown ID is a no-op.
func (g *Grid) Remove(id int) {
	p, ok := g.pos[id]
	if !ok {
		return
	}
	delete(g.pos, id)
	g.removeCell(g.keyFor(p), id)
}

// visitBox invokes visit for every entry in the inclusive cell box
// [lo, hi], in deterministic order: cells row-major by grid coordinate,
// IDs ascending within a cell. The cost is min(box cells, occupied
// cells): when the box spans far more cells than are occupied, the
// occupied cells are enumerated directly instead of walking empty ones.
func (g *Grid) visitBox(lo, hi cellKey, visit func(id int, p Point)) {
	boxW, boxH := hi.X-lo.X+1, hi.Y-lo.Y+1
	if boxW > len(g.cells) || boxH > len(g.cells) || boxW*boxH > len(g.cells) {
		// Sparse occupancy: enumerate the occupied cells inside the box
		// in the same row-major order the dense walk would use.
		keys := make([]cellKey, 0, len(g.cells))
		for k := range g.cells {
			if k.X >= lo.X && k.X <= hi.X && k.Y >= lo.Y && k.Y <= hi.Y {
				keys = append(keys, k)
			}
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].Y != keys[j].Y {
				return keys[i].Y < keys[j].Y
			}
			return keys[i].X < keys[j].X
		})
		for _, k := range keys {
			for _, id := range g.cells[k] {
				visit(id, g.pos[id])
			}
		}
		return
	}
	for cy := lo.Y; cy <= hi.Y; cy++ {
		for cx := lo.X; cx <= hi.X; cx++ {
			for _, id := range g.cells[cellKey{X: cx, Y: cy}] {
				visit(id, g.pos[id])
			}
		}
	}
}

// Cover is a live registration over the block of cells a circular query
// covers. Build one with CoverFor next to the query, cache the query
// result, and gate reuse on CoverValid: the cache stays valid exactly
// as long as no entry has entered, left, or crossed into any covered
// cell. Invalidation is push-based — a membership change in a covered
// cell marks the cover dirty via the cell's watcher list — which is the
// O(1)-per-check equivalent of re-comparing the per-cell generations
// the cover observed at build time. Release a cover that will not be
// revalidated again so its registrations are dropped.
type Cover struct {
	anchor   cellKey // cell of the center the cover was built for
	lo, hi   cellKey // inclusive cell box, one-cell margin included
	radius   float64
	dirty    bool
	released bool
	// slots mirrors the cover's registration in each covered cell's
	// watcher list; slot indices are kept current under swap-removal.
	slots []coverSlot
}

// coverSlot records where in cell key's watcher list this cover sits.
type coverSlot struct {
	key   cellKey
	index int
}

// Cells returns the number of cells the cover spans.
func (c *Cover) Cells() int {
	return (c.hi.X - c.lo.X + 1) * (c.hi.Y - c.lo.Y + 1)
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
	c.slots = make([]coverSlot, 0, c.Cells())
	for cy := c.lo.Y; cy <= c.hi.Y; cy++ {
		for cx := c.lo.X; cx <= c.hi.X; cx++ {
			k := cellKey{X: cx, Y: cy}
			list := g.watchers[k]
			c.slots = append(c.slots, coverSlot{key: k, index: len(list)})
			g.watchers[k] = append(list, watcherRef{cover: c, slot: len(c.slots) - 1})
		}
	}
	return c
}

// CoverValid reports whether the cover still describes the grid: the
// query origin is still in the cell the cover was anchored to and no
// covered cell's membership has changed since CoverFor or the last
// Refresh. The check is O(1); the bookkeeping rides on membership
// changes instead.
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
// the covered query (VisitCover), whose fresh result the existing
// registration then guards again. Refreshing a released cover is a
// no-op — it stays invalid.
func (g *Grid) Refresh(c *Cover) {
	if c != nil && !c.released {
		c.dirty = false
	}
}

// Watchers returns the total number of live cover registrations across
// all cells — an introspection hook for registration-leak tests.
func (g *Grid) Watchers() int {
	n := 0
	for _, list := range g.watchers {
		n += len(list)
	}
	return n
}

// Release drops the cover's watcher registrations; the cover is
// permanently invalid afterwards. Callers replacing a cached cover must
// release the old one, or the stale registrations keep receiving dirty
// marks forever. Releasing nil or an already-released cover is a no-op.
func (g *Grid) Release(c *Cover) {
	if c == nil || c.released {
		return
	}
	c.released = true
	for _, s := range c.slots {
		list := g.watchers[s.key]
		last := len(list) - 1
		moved := list[last]
		list[s.index] = moved
		moved.cover.slots[moved.slot].index = s.index
		list = list[:last]
		if len(list) == 0 {
			delete(g.watchers, s.key)
		} else {
			g.watchers[s.key] = list
		}
	}
	c.slots = nil
}

// VisitCover invokes visit for every entry in the cover's cells — no
// radius filter; callers needing the exact circle check distances
// themselves. Order is deterministic: cells row-major, IDs ascending
// within a cell. The walk costs min(box cells, occupied cells).
func (g *Grid) VisitCover(c *Cover, visit func(id int, p Point)) {
	g.visitBox(c.lo, c.hi, visit)
}
