package rfb

import (
	"bytes"
	"fmt"
	"math/bits"

	"aroma/internal/netsim"
	"aroma/internal/sim"
)

// Test-only helpers: nothing outside the tests calls these, so they
// live here rather than in the package's API.

// RequestUpdate pulls one update, as one poll of Stream does, and
// counts it. A reply that passes the framing check is then decoded into
// mirror (optional) by the reference decoder. done (optional) receives
// the number of tiles counted, or the first error.
func (c *Client) RequestUpdate(timeout sim.Time, mirror *refFB, done func(tiles int, err error)) {
	c.node.Call(c.server, netsim.PortRFB, incremental, timeout, func(resp []byte, err error) {
		tiles, err := c.apply(resp, err)
		if err == nil && mirror != nil {
			err = refApplyWire(mirror, resp)
		}
		if done != nil {
			done(tiles, err)
		}
	})
}

// MarkAllDirty flags every tile, so the next update is a full frame.
func (f *Framebuffer) MarkAllDirty() {
	for i := range f.dirty {
		f.dirty[i] = ^uint64(0)
	}
	if n := len(f.tiles) % 64; n != 0 {
		f.dirty[len(f.dirty)-1] = 1<<n - 1
	}
}

// The per-pixel accessors below read and write the production store;
// production code moves whole tiles (block, put) and never touches a
// single pixel.

// Pixel returns the pixel at (x, y); out-of-bounds reads return 0.
func (f *Framebuffer) Pixel(x, y int) uint8 {
	if x < 0 || y < 0 || x >= f.W || y >= f.H {
		return 0
	}
	bx, by := x&^(TileSize-1), y&^(TileSize-1)
	blk, tw := f.block((by/TileSize)*f.tilesX+bx/TileSize, bx, by)
	return blk[(y-by)*tw+x-bx]
}

// Set writes one pixel through putTile, so its tile is marked dirty only if
// the pixel changed. Out-of-bounds writes are ignored.
func (f *Framebuffer) Set(x, y int, v uint8) {
	if x < 0 || y < 0 || x >= f.W || y >= f.H {
		return
	}
	src := [1]uint8{v}
	f.putTile(x, y, x+1, y+1, src[:], 1)
}

// isDirty reports tile t's dirty flag.
func (f *Framebuffer) isDirty(t int) bool { return f.dirty[t/64]>>(t%64)&1 == 1 }

// DirtyCount returns the number of dirty tiles.
func (f *Framebuffer) DirtyCount() int {
	n := 0
	for _, w := range f.dirty {
		n += bits.OnesCount64(w)
	}
	return n
}

// samePixels reports whether f and the reference framebuffer r have the
// same size and pixels; dirty flags are not compared.
func samePixels(f *Framebuffer, r *refFB) bool {
	if f.W != r.W || f.H != r.H {
		return false
	}
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			if f.Pixel(x, y) != r.Pixel(x, y) {
				return false
			}
		}
	}
	return true
}

// heldTiles returns the number of tiles that hold storage.
func (f *Framebuffer) heldTiles() int {
	n := 0
	for _, p := range f.tiles {
		if p != nil {
			n++
		}
	}
	return n
}

// storageFault describes the first broken invariant of f's sparse
// storage, or returns "": the shared zero tile is all zero, a tile's
// storage is zero past its block and held by that tile alone, and every
// free-list entry is all zero and held by no tile.
func storageFault(f *Framebuffer) string {
	if zeroTile != (tileBlock{}) {
		return "the shared zero tile was written"
	}
	owner := map[*tileBlock]string{&zeroTile: "the zero tile"}
	for t, p := range f.tiles {
		if p == nil {
			continue
		}
		if o, ok := owner[p]; ok {
			return fmt.Sprintf("tile %d holds the storage of %s", t, o)
		}
		owner[p] = fmt.Sprintf("tile %d", t)
		x, y := t%f.tilesX*TileSize, t/f.tilesX*TileSize
		blk, _ := f.block(t, x, y)
		if !bytes.Equal(p[len(blk):], zeroTile[len(blk):]) {
			return fmt.Sprintf("tile %d has non-zero bytes past its %d-byte block", t, len(blk))
		}
	}
	for i, p := range f.free {
		if o, ok := owner[p]; ok {
			return fmt.Sprintf("free-list entry %d is also the storage of %s", i, o)
		}
		owner[p] = fmt.Sprintf("free-list entry %d", i)
		if *p != (tileBlock{}) {
			return fmt.Sprintf("free-list entry %d is not all zero", i)
		}
	}
	return ""
}
