// Package rfb implements the remote-framebuffer protocol the Smart
// Projector's projection service is built on — the role AT&T VNC plays in
// the paper's prototype ("VNC is used to make the laptop display
// available to the Aroma adapter which in turn displays it via the
// projector").
//
// The model is a pull-protocol like real VNC: the display side requests
// an update; the framebuffer side answers with the set of tiles that
// changed since the last update, each tile encoded raw or run-length.
// Pixels are 8-bit (palettized), faithful to 1999-era projected desktops
// and keeping byte counts honest for the bandwidth experiment (C1): the
// paper's physical-layer finding is that wireless bandwidth "prevents us
// from displaying rapid animation", and the tile/encoding choices are the
// ablation arms.
package rfb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// TileSize is the side length of the square dirty-tracking tiles.
const TileSize = 16

// maxDim is the largest framebuffer side the wire format can address:
// tile rectangles travel as uint16 fields.
const maxDim = math.MaxUint16

// Framebuffer is a W×H 8-bit pixel surface with per-tile dirty tracking.
type Framebuffer struct {
	W, H           int
	pix            []uint8
	tilesX, tilesY int
	dirty          []bool
}

// NewFramebuffer allocates a zeroed framebuffer. Dimensions must be
// positive and at most 65535 (the wire's uint16 limit); they are not
// required to be tile-aligned.
func NewFramebuffer(w, h int) (*Framebuffer, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("rfb: invalid dimensions %dx%d", w, h)
	}
	if w > maxDim || h > maxDim {
		return nil, fmt.Errorf("rfb: dimensions %dx%d exceed the wire limit %d", w, h, maxDim)
	}
	tx := (w + TileSize - 1) / TileSize
	ty := (h + TileSize - 1) / TileSize
	return &Framebuffer{
		W: w, H: h,
		pix:    make([]uint8, w*h),
		tilesX: tx, tilesY: ty,
		dirty: make([]bool, tx*ty),
	}, nil
}

// Pixel returns the pixel at (x, y); out-of-bounds reads return 0.
func (f *Framebuffer) Pixel(x, y int) uint8 {
	if x < 0 || y < 0 || x >= f.W || y >= f.H {
		return 0
	}
	return f.pix[y*f.W+x]
}

// Set writes one pixel and marks its tile dirty. Out-of-bounds writes are
// ignored.
func (f *Framebuffer) Set(x, y int, v uint8) {
	if x < 0 || y < 0 || x >= f.W || y >= f.H {
		return
	}
	i := y*f.W + x
	if f.pix[i] == v {
		return // no visual change, no dirt
	}
	f.pix[i] = v
	f.dirty[(y/TileSize)*f.tilesX+(x/TileSize)] = true
}

// Fill sets every pixel in the rectangle [x, x+w) × [y, y+h); the part
// outside the framebuffer is ignored. A tile is marked dirty only if one
// of its pixels changed.
func (f *Framebuffer) Fill(x, y, w, h int, v uint8) {
	x0, x1 := max(x, 0), min(x+w, f.W)
	y0, y1 := max(y, 0), min(y+h, f.H)
	if x0 >= x1 || y0 >= y1 {
		return
	}
	for yy := y0; yy < y1; yy++ {
		row := f.pix[yy*f.W : (yy+1)*f.W]
		dirty := f.dirty[(yy/TileSize)*f.tilesX:]
		for sx := x0; sx < x1; {
			ex := min(sx-sx%TileSize+TileSize, x1)
			if fillSegment(row[sx:ex], v) {
				dirty[sx/TileSize] = true
			}
			sx = ex
		}
	}
}

// fillSegment sets every byte of seg to v and reports whether any
// byte changed.
func fillSegment(seg []uint8, v uint8) bool {
	for i, p := range seg {
		if p != v {
			for j := i; j < len(seg); j++ {
				seg[j] = v
			}
			return true
		}
	}
	return false
}

// writeRow copies src into row y starting at column x, one tile-wide
// segment at a time; the part outside the framebuffer is ignored. A
// tile is marked dirty only if one of its pixels changed.
func (f *Framebuffer) writeRow(x, y int, src []uint8) {
	if y < 0 || y >= f.H {
		return
	}
	x0, x1 := max(x, 0), min(x+len(src), f.W)
	row := f.pix[y*f.W : (y+1)*f.W]
	dirty := f.dirty[(y/TileSize)*f.tilesX:]
	for sx := x0; sx < x1; {
		ex := min(sx-sx%TileSize+TileSize, x1)
		seg, in := row[sx:ex], src[sx-x:ex-x]
		if !bytes.Equal(seg, in) {
			copy(seg, in)
			dirty[sx/TileSize] = true
		}
		sx = ex
	}
}

// MarkAllDirty flags every tile, forcing the next update to be a full
// frame (used at client attach).
func (f *Framebuffer) MarkAllDirty() {
	for i := range f.dirty {
		f.dirty[i] = true
	}
}

// DirtyCount returns the number of dirty tiles.
func (f *Framebuffer) DirtyCount() int {
	n := 0
	for _, d := range f.dirty {
		if d {
			n++
		}
	}
	return n
}

// Equal reports whether two framebuffers have identical pixel content.
func (f *Framebuffer) Equal(g *Framebuffer) bool {
	if f.W != g.W || f.H != g.H {
		return false
	}
	for i := range f.pix {
		if f.pix[i] != g.pix[i] {
			return false
		}
	}
	return true
}

// Rect is a pixel-space rectangle.
type Rect struct {
	X, Y, W, H int
}

// Encoding selects the tile wire format.
type Encoding uint8

// Tile encodings.
const (
	// EncRaw sends W*H literal bytes.
	EncRaw Encoding = iota
	// EncRLE sends (count, value) byte pairs.
	EncRLE
)

// String names the encoding.
func (e Encoding) String() string {
	switch e {
	case EncRaw:
		return "raw"
	case EncRLE:
		return "rle"
	default:
		return fmt.Sprintf("Encoding(%d)", uint8(e))
	}
}

// DecodeTile writes an encoded tile into the framebuffer at r. Pixels
// outside the framebuffer are consumed but not written. On a malformed
// RLE payload the runs before the fault have already been written.
func DecodeTile(f *Framebuffer, r Rect, enc Encoding, data []byte) error {
	switch enc {
	case EncRaw:
		if len(data) != r.W*r.H {
			return fmt.Errorf("rfb: raw tile size %d != %d", len(data), r.W*r.H)
		}
		for y := r.Y; y < r.Y+r.H; y++ {
			f.writeRow(r.X, y, data[:r.W])
			data = data[r.W:]
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
			for n > 0 {
				if y >= r.Y+r.H {
					return errors.New("rfb: RLE overflow")
				}
				// A run continues across row ends; a rectangle with no
				// width never wraps, so its runs stay on the first row.
				span := n
				if r.W > 0 {
					span = min(n, r.X+r.W-x)
				}
				f.Fill(x, y, span, 1, v)
				x += span
				n -= span
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

// TileUpdate is one encoded tile within an Update.
type TileUpdate struct {
	Rect Rect
	Enc  Encoding
	Data []byte
}

// Update is the wire unit: the set of tiles changed since the previous
// update.
type Update struct {
	Serial uint32
	Tiles  []TileUpdate
}

// Wire layout: an update header (serial, tile count; uint32 each)
// followed by each tile's header (x, y, w, h as uint16, encoding byte,
// body length as uint32) and body.
const (
	updateHeaderLen = 8
	tileHeaderLen   = 13
)

// appendUpdate appends the wire form of an update carrying every dirty
// tile of f, in row-major tile order, and clears the dirty flags. It
// returns the extended buffer and the number of tiles written. With
// EncRLE each tile is run-length encoded straight into dst and rewritten
// raw in place once the RLE body would reach the raw size, as real RFB
// encoders do.
func appendUpdate(dst []byte, f *Framebuffer, serial uint32, enc Encoding) ([]byte, int) {
	start := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, serial)
	dst = binary.BigEndian.AppendUint32(dst, 0) // tile count, patched below
	tiles := 0
	for i, d := range f.dirty {
		if !d {
			continue
		}
		f.dirty[i] = false
		tiles++
		x, y := (i%f.tilesX)*TileSize, (i/f.tilesX)*TileSize
		w, h := min(TileSize, f.W-x), min(TileSize, f.H-y)
		hdr := len(dst)
		dst = binary.BigEndian.AppendUint16(dst, uint16(x))
		dst = binary.BigEndian.AppendUint16(dst, uint16(y))
		dst = binary.BigEndian.AppendUint16(dst, uint16(w))
		dst = binary.BigEndian.AppendUint16(dst, uint16(h))
		dst = append(dst, byte(EncRaw), 0, 0, 0, 0)
		body := len(dst)
		ok := false
		if enc == EncRLE {
			dst, ok = appendRLE(dst, f, x, y, w, h)
		}
		if ok {
			dst[hdr+8] = byte(EncRLE)
		} else {
			dst = dst[:body]
			for yy := y; yy < y+h; yy++ {
				dst = append(dst, f.pix[yy*f.W+x:yy*f.W+x+w]...)
			}
		}
		binary.BigEndian.PutUint32(dst[hdr+9:], uint32(len(dst)-body))
	}
	binary.BigEndian.PutUint32(dst[start+4:], uint32(tiles))
	return dst, tiles
}

// appendRLE appends the (count, value) runs of the w×h tile at (x, y),
// read row-major with runs continuing across row ends. It gives up and
// reports false as soon as the body reaches w*h bytes, where raw is no
// larger.
func appendRLE(dst []byte, f *Framebuffer, x, y, w, h int) ([]byte, bool) {
	limit := len(dst) + w*h
	v, n := f.pix[y*f.W+x], 0
	for yy := y; yy < y+h; yy++ {
		for _, p := range f.pix[yy*f.W+x : yy*f.W+x+w] {
			if p != v || n == 255 {
				dst = append(dst, byte(n), v)
				if len(dst) >= limit {
					return dst, false
				}
				v, n = p, 0
			}
			n++
		}
	}
	dst = append(dst, byte(n), v)
	return dst, len(dst) < limit
}

// UnmarshalUpdate parses a wire-format update.
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

// Apply writes every tile of an update into the framebuffer.
func Apply(f *Framebuffer, u *Update) error {
	for _, t := range u.Tiles {
		if err := DecodeTile(f, t.Rect, t.Enc, t.Data); err != nil {
			return err
		}
	}
	return nil
}
