package rfb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// This file is the reference model of the RFB pipeline: the per-pixel
// framebuffer writes, the build-then-marshal encoder and the
// parse-then-apply decoder the production code replaced with tile-wise
// kernels, a direct-to-wire encoder and an apply straight from the wire.
// FuzzUpdateMatchesReference holds the two to identical wire bytes,
// pixels, dirty flags and error text.

// TileUpdate is one encoded tile within an Update.
type TileUpdate struct {
	Rect Rect
	Enc  Encoding
	Data []byte
}

// Update is the parsed wire unit: the set of tiles changed since the
// previous update.
type Update struct {
	Serial uint32
	Tiles  []TileUpdate
}

// UnmarshalUpdate parses a wire-format update; its tiles' Data alias
// data.
func UnmarshalUpdate(data []byte) (*Update, error) {
	if len(data) < 8 {
		return nil, errors.New("rfb: short update header")
	}
	u := &Update{Serial: binary.BigEndian.Uint32(data[:4])}
	count := binary.BigEndian.Uint32(data[4:8])
	if count > 1<<20 {
		return nil, fmt.Errorf("rfb: unreasonable tile count %d", count)
	}
	// Every tile takes at least a header, so the body bounds the presize
	// however many tiles the header claims.
	if n := min(int(count), (len(data)-updateHeaderLen)/tileHeaderLen); n > 0 {
		u.Tiles = make([]TileUpdate, 0, n)
	}
	off := updateHeaderLen
	for i := uint32(0); i < count; i++ {
		if off+tileHeaderLen > len(data) {
			return nil, errors.New("rfb: short tile header")
		}
		var t TileUpdate
		t.Rect.X = int(binary.BigEndian.Uint16(data[off:]))
		t.Rect.Y = int(binary.BigEndian.Uint16(data[off+2:]))
		t.Rect.W = int(binary.BigEndian.Uint16(data[off+4:]))
		t.Rect.H = int(binary.BigEndian.Uint16(data[off+6:]))
		t.Enc = Encoding(data[off+8])
		n := int(binary.BigEndian.Uint32(data[off+9:]))
		off += tileHeaderLen
		if off+n > len(data) {
			return nil, errors.New("rfb: short tile data")
		}
		t.Data = data[off : off+n]
		off += n
		u.Tiles = append(u.Tiles, t)
	}
	if off != len(data) {
		return nil, fmt.Errorf("rfb: %d trailing bytes", len(data)-off)
	}
	return u, nil
}

// Apply writes every tile of an update into the framebuffer with the
// production DecodeTile.
func Apply(f *Framebuffer, u *Update) error {
	for _, t := range u.Tiles {
		if err := DecodeTile(f, t.Rect, t.Enc, t.Data); err != nil {
			return err
		}
	}
	return nil
}

// refFill sets every pixel in [x, x+w) × [y, y+h) one Set at a time.
func refFill(f *Framebuffer, x, y, w, h int, v uint8) {
	for yy := y; yy < y+h; yy++ {
		for xx := x; xx < x+w; xx++ {
			f.Set(xx, yy, v)
		}
	}
}

// refDrawTextured paints a side×side textured square at (x, y) one Set
// at a time, as Animator.drawTextured does row-wise.
func refDrawTextured(f *Framebuffer, x, y, side int, color uint8) {
	for yy := y; yy < y+side; yy++ {
		for xx := x; xx < x+side; xx++ {
			f.Set(xx, yy, color^uint8(xx*7+yy*13))
		}
	}
}

// refStep is Animator.Step drawn with the reference writes.
func refStep(a *Animator) {
	refFill(a.fb, a.x, a.y, a.side, a.side, 0)
	a.x += a.dx
	a.y += a.dy
	if a.x < 0 {
		a.x = 0
		a.dx = -a.dx
	}
	if a.y < 0 {
		a.y = 0
		a.dy = -a.dy
	}
	if a.x+a.side > a.fb.W {
		a.x = a.fb.W - a.side
		a.dx = -a.dx
	}
	if a.y+a.side > a.fb.H {
		a.y = a.fb.H - a.side
		a.dy = -a.dy
	}
	a.color++
	if a.color == 0 {
		a.color = 1
	}
	if a.Textured {
		refDrawTextured(a.fb, a.x, a.y, a.side, a.color)
	} else {
		refFill(a.fb, a.x, a.y, a.side, a.side, a.color)
	}
	a.Steps++
}

// refDirtyTiles returns the bounding rectangles of all dirty tiles, in
// row-major order. Tiles at the right/bottom edge are clipped.
func refDirtyTiles(f *Framebuffer) []Rect {
	var out []Rect
	for ty := 0; ty < f.tilesY; ty++ {
		for tx := 0; tx < f.tilesX; tx++ {
			if !f.isDirty(ty*f.tilesX + tx) {
				continue
			}
			r := Rect{X: tx * TileSize, Y: ty * TileSize, W: TileSize, H: TileSize}
			if r.X+r.W > f.W {
				r.W = f.W - r.X
			}
			if r.Y+r.H > f.H {
				r.H = f.H - r.Y
			}
			out = append(out, r)
		}
	}
	return out
}

// refEncodeTileRaw extracts the rectangle's pixels row-major.
func refEncodeTileRaw(f *Framebuffer, r Rect) []byte {
	out := make([]byte, 0, r.W*r.H)
	for y := r.Y; y < r.Y+r.H; y++ {
		for x := r.X; x < r.X+r.W; x++ {
			out = append(out, f.Pixel(x, y))
		}
	}
	return out
}

// refEncodeTileRLE run-length encodes the rectangle row-major.
func refEncodeTileRLE(f *Framebuffer, r Rect) []byte {
	raw := refEncodeTileRaw(f, r)
	out := make([]byte, 0, len(raw)/2)
	i := 0
	for i < len(raw) {
		v := raw[i]
		n := 1
		for i+n < len(raw) && raw[i+n] == v && n < 255 {
			n++
		}
		out = append(out, byte(n), v)
		i += n
	}
	return out
}

// refEncodeTile encodes the rectangle, falling back from RLE to raw when
// run-length expansion would not be smaller.
func refEncodeTile(f *Framebuffer, r Rect, enc Encoding) (Encoding, []byte) {
	if enc == EncRLE {
		if rle := refEncodeTileRLE(f, r); len(rle) < r.W*r.H {
			return EncRLE, rle
		}
	}
	return EncRaw, refEncodeTileRaw(f, r)
}

// refMakeUpdate collects the dirty tiles into an Update and clears the
// dirty set.
func refMakeUpdate(f *Framebuffer, serial uint32, enc Encoding) *Update {
	u := &Update{Serial: serial}
	for _, r := range refDirtyTiles(f) {
		usedEnc, data := refEncodeTile(f, r, enc)
		u.Tiles = append(u.Tiles, TileUpdate{Rect: r, Enc: usedEnc, Data: data})
	}
	clear(f.dirty)
	return u
}

// refWireSize returns the encoded byte size of the update.
func refWireSize(u *Update) int {
	n := 8 // serial + tile count
	for _, t := range u.Tiles {
		n += 13 + len(t.Data) // x,y,w,h (2 each) + enc + len(4)
	}
	return n
}

// refMarshal encodes the update for the wire.
func refMarshal(u *Update) []byte {
	out := make([]byte, 0, refWireSize(u))
	var b4 [4]byte
	binary.BigEndian.PutUint32(b4[:], u.Serial)
	out = append(out, b4[:]...)
	binary.BigEndian.PutUint32(b4[:], uint32(len(u.Tiles)))
	out = append(out, b4[:]...)
	var b2 [2]byte
	for _, t := range u.Tiles {
		for _, v := range []int{t.Rect.X, t.Rect.Y, t.Rect.W, t.Rect.H} {
			binary.BigEndian.PutUint16(b2[:], uint16(v))
			out = append(out, b2[:]...)
		}
		out = append(out, byte(t.Enc))
		binary.BigEndian.PutUint32(b4[:], uint32(len(t.Data)))
		out = append(out, b4[:]...)
		out = append(out, t.Data...)
	}
	return out
}

// refDecodeTile writes an encoded tile into the framebuffer at r one Set
// at a time.
func refDecodeTile(f *Framebuffer, r Rect, enc Encoding, data []byte) error {
	switch enc {
	case EncRaw:
		if len(data) != r.W*r.H {
			return fmt.Errorf("rfb: raw tile size %d != %d", len(data), r.W*r.H)
		}
		i := 0
		for y := r.Y; y < r.Y+r.H; y++ {
			for x := r.X; x < r.X+r.W; x++ {
				f.Set(x, y, data[i])
				i++
			}
		}
		return nil
	case EncRLE:
		if len(data)%2 != 0 {
			return errors.New("rfb: odd RLE payload")
		}
		x, y := r.X, r.Y
		total := 0
		for i := 0; i < len(data); i += 2 {
			n, v := int(data[i]), data[i+1]
			if n == 0 {
				return errors.New("rfb: zero-length RLE run")
			}
			total += n
			for j := 0; j < n; j++ {
				if y >= r.Y+r.H {
					return errors.New("rfb: RLE overflow")
				}
				f.Set(x, y, v)
				x++
				if x == r.X+r.W {
					x = r.X
					y++
				}
			}
		}
		if total != r.W*r.H {
			return fmt.Errorf("rfb: RLE covers %d pixels, want %d", total, r.W*r.H)
		}
		return nil
	default:
		return fmt.Errorf("rfb: unknown encoding %d", enc)
	}
}

// refApply writes every tile of an update with refDecodeTile.
func refApply(f *Framebuffer, u *Update) error {
	for _, t := range u.Tiles {
		if err := refDecodeTile(f, t.Rect, t.Enc, t.Data); err != nil {
			return err
		}
	}
	return nil
}

// The per-pixel accessors below are the reference side of the
// framebuffer: production code moves whole tiles (block) and never
// touches a single pixel.

// index returns the offset of in-bounds pixel (x, y) in pix.
func (f *Framebuffer) index(x, y int) int {
	bx, by := x&^(TileSize-1), y&^(TileSize-1)
	tw, hb := min(TileSize, f.W-bx), min(TileSize, f.H-by)
	return by*f.W + bx*hb + (y-by)*tw + x - bx
}

// Pixel returns the pixel at (x, y); out-of-bounds reads return 0.
func (f *Framebuffer) Pixel(x, y int) uint8 {
	if x < 0 || y < 0 || x >= f.W || y >= f.H {
		return 0
	}
	return f.pix[f.index(x, y)]
}

// Set writes one pixel and marks its tile dirty. Out-of-bounds writes are
// ignored.
func (f *Framebuffer) Set(x, y int, v uint8) {
	if x < 0 || y < 0 || x >= f.W || y >= f.H {
		return
	}
	i := f.index(x, y)
	if f.pix[i] == v {
		return // no visual change, no dirt
	}
	f.pix[i] = v
	t := (y/TileSize)*f.tilesX + x/TileSize
	f.dirty[t/64] |= 1 << (t % 64)
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

// Equal reports whether two framebuffers have identical pixel content.
func (f *Framebuffer) Equal(g *Framebuffer) bool {
	return f.W == g.W && f.H == g.H && bytes.Equal(f.pix, g.pix)
}
