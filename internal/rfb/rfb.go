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
//
// # Layout
//
// A framebuffer stores its pixels tile-major, in the 16×16 tiles the
// protocol ships. Pixels are ordered by 16-row band, then by tile within
// the band, and each tile is its own row-major w×h block whose stride is
// that tile's width: tile (tx, ty) starts at byte ty·16·W + tx·16·hb,
// where hb is the band's height. Edge tiles are narrower or shorter, not
// padded, so the store is exactly W·H bytes and every tile, edge tiles
// included, is one contiguous slice: a raw tile is encoded by one append
// and decoded by one copy. Every write goes through put, which compares
// old and new pixels only while the tile is clean, so a tile is dirty
// exactly when one of its pixels changed since the last update.
//
// The dirty flags are a bitmap, one bit per tile in row-major tile
// order, 64 tiles to a word. The encoder walks it with TrailingZeros64
// and skips clean words whole, so a poll of a mostly static 1024×768
// screen reads 48 words rather than 3072 flags. Ascending bit order is
// row-major tile order, which is the order tiles travel on the wire.
//
// # Wire path
//
// The client applies an update straight from the reply's bytes: one pass
// checks every header, so a malformed reply writes nothing, and a second
// decodes each tile's body in place into the framebuffer. No parsed form
// of the update is built.
package rfb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// TileSize is the side length of the square dirty-tracking tiles.
const TileSize = 16

// maxDim is the largest framebuffer side the wire format can address:
// tile rectangles travel as uint16 fields.
const maxDim = math.MaxUint16

// Byte-lane masks for eight pixels held in one uint64.
const (
	lanes uint64 = 0x0101010101010101
	highs uint64 = 0x8080808080808080
)

// Framebuffer is a W×H 8-bit pixel surface with per-tile dirty tracking.
type Framebuffer struct {
	W, H           int
	pix            []uint8 // tile-major; see the package doc
	tilesX, tilesY int
	dirty          []uint64 // bit t%64 of word t/64 is tile t's flag
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
		dirty: make([]uint64, (tx*ty+63)/64),
	}, nil
}

// block returns the pixels of the tile whose top-left pixel is (x, y),
// both multiples of TileSize inside the framebuffer, and the tile's
// width, which is the block's stride.
func (f *Framebuffer) block(x, y int) ([]uint8, int) {
	tw, hb := min(TileSize, f.W-x), min(TileSize, f.H-y)
	off := y*f.W + x*hb
	return f.pix[off : off+tw*hb], tw
}

// put copies src into seg, part of tile t's block. While the tile is
// clean it compares first and marks the tile dirty only if a pixel
// differs; a dirty tile is copied without comparing.
func (f *Framebuffer) put(t int, seg, src []uint8) {
	w, bit := &f.dirty[t/64], uint64(1)<<(t%64)
	if *w&bit == 0 {
		if bytes.Equal(seg, src) {
			return
		}
		*w |= bit
	}
	copy(seg, src)
}

// eachTile calls fn with the part [x0, x1) × [y0, y1) of the rectangle,
// clipped to the framebuffer, that lies in each tile it covers, band by
// band.
func (f *Framebuffer) eachTile(x0, y0, x1, y1 int, fn func(x0, y0, x1, y1 int)) {
	x0, x1 = max(x0, 0), min(x1, f.W)
	y0, y1 = max(y0, 0), min(y1, f.H)
	if x0 >= x1 || y0 >= y1 {
		return
	}
	for by := y0 &^ (TileSize - 1); by < y1; by += TileSize {
		for bx := x0 &^ (TileSize - 1); bx < x1; bx += TileSize {
			fn(max(x0, bx), max(y0, by), min(x1, bx+TileSize), min(y1, by+TileSize))
		}
	}
}

// putTile writes src into [x0, x1) × [y0, y1), which lies within one
// tile, row k from src[k·stride:]. Whole tile rows from a source of the
// same stride are one contiguous range and take a single put.
func (f *Framebuffer) putTile(x0, y0, x1, y1 int, src []uint8, stride int) {
	bx, by := x0&^(TileSize-1), y0&^(TileSize-1)
	blk, tw := f.block(bx, by)
	t := (by/TileSize)*f.tilesX + bx/TileSize
	w := x1 - x0
	if w == tw && stride == w {
		f.put(t, blk[(y0-by)*w:(y1-by)*w], src[:(y1-y0)*w])
		return
	}
	for y := y0; y < y1; y++ {
		k := (y - y0) * stride
		f.put(t, blk[(y-by)*tw+x0-bx:][:w], src[k:k+w])
	}
}

// Fill sets every pixel in the rectangle [x, x+w) × [y, y+h); the part
// outside the framebuffer is ignored. A tile is marked dirty only if one
// of its pixels changed.
func (f *Framebuffer) Fill(x, y, w, h int, v uint8) {
	var pat [TileSize * TileSize]uint8
	fillBytes(pat[:], v)
	f.eachTile(x, y, x+w, y+h, func(x0, y0, x1, y1 int) {
		f.putTile(x0, y0, x1, y1, pat[:], x1-x0)
	})
}

// fillBytes sets every byte of b to v, eight at a time.
func fillBytes(b []uint8, v uint8) {
	v8 := uint64(v) * lanes
	i := 0
	for ; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], v8)
	}
	for ; i < len(b); i++ {
		b[i] = v
	}
}

// writeBlock copies src, a row-major w×h block, to the rectangle with
// top-left pixel (x, y); the part outside the framebuffer is ignored.
func (f *Framebuffer) writeBlock(x, y, w, h int, src []uint8) {
	f.eachTile(x, y, x+w, y+h, func(x0, y0, x1, y1 int) {
		f.putTile(x0, y0, x1, y1, src[(y0-y)*w+x0-x:], w)
	})
}

// writeRect writes s, a row-major prefix of the pixels of r, into the
// framebuffer: its whole rows as one block, then the partial row. A
// rectangle without height takes nothing; one without width takes all
// of s on its first row, where the RLE decoder's runs never wrap.
func (f *Framebuffer) writeRect(r Rect, s []uint8) {
	switch {
	case r.H <= 0:
	case r.W <= 0:
		f.writeBlock(r.X, r.Y, len(s), 1, s)
	default:
		rows := len(s) / r.W
		f.writeBlock(r.X, r.Y, r.W, rows, s)
		f.writeBlock(r.X, r.Y+rows, len(s)-rows*r.W, 1, s[rows*r.W:])
	}
}

// MarkAllDirty flags every tile, forcing the next update to be a full
// frame (used at client attach).
func (f *Framebuffer) MarkAllDirty() {
	for i := range f.dirty {
		f.dirty[i] = ^uint64(0)
	}
	if n := f.tilesX * f.tilesY % 64; n != 0 {
		f.dirty[len(f.dirty)-1] = 1<<n - 1
	}
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
		f.writeRect(r, data)
		return nil
	case EncRLE:
		if len(data)%2 != 0 {
			return errors.New("rfb: odd RLE payload")
		}
		// The runs are expanded into s and written once. s holds at most
		// what the rectangle takes before it overflows: nothing without
		// height, W·H pixels with a width, and without one every run (they
		// all land on the first row). The payload bounds s either way.
		room := 255 * len(data) / 2
		if r.H <= 0 {
			room = 0
		} else if r.W > 0 {
			room = min(room, r.W*r.H)
		}
		var buf [TileSize * TileSize]uint8
		s := buf[:0]
		if room > len(buf) {
			s = make([]uint8, 0, room)
		}
		total := 0
		for i := 0; i < len(data); i += 2 {
			n, v := int(data[i]), data[i+1]
			if n == 0 {
				f.writeRect(r, s)
				return errors.New("rfb: zero-length RLE run")
			}
			total += n
			k := min(n, room-len(s))
			s = s[:len(s)+k]
			fillBytes(s[len(s)-k:], v)
			if k < n {
				f.writeRect(r, s)
				return errors.New("rfb: RLE overflow")
			}
		}
		f.writeRect(r, s)
		if total != r.W*r.H {
			return fmt.Errorf("rfb: RLE covers %d pixels, want %d", total, r.W*r.H)
		}
		return nil
	default:
		return fmt.Errorf("rfb: unknown encoding %d", enc)
	}
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
// EncRLE a tile is run-length encoded unless its RLE body would be no
// smaller than raw, as real RFB encoders do; raw bodies are the tile's
// stored block.
func appendUpdate(dst []byte, f *Framebuffer, serial uint32, enc Encoding) ([]byte, int) {
	start := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, serial)
	dst = binary.BigEndian.AppendUint32(dst, 0) // tile count, patched below
	tiles := 0
	for j, m := range f.dirty {
		f.dirty[j] = 0
		for ; m != 0; m &= m - 1 {
			i := 64*j + bits.TrailingZeros64(m)
			tiles++
			x, y := (i%f.tilesX)*TileSize, (i/f.tilesX)*TileSize
			blk, w := f.block(x, y)
			hdr := len(dst)
			dst = binary.BigEndian.AppendUint16(dst, uint16(x))
			dst = binary.BigEndian.AppendUint16(dst, uint16(y))
			dst = binary.BigEndian.AppendUint16(dst, uint16(w))
			dst = binary.BigEndian.AppendUint16(dst, uint16(len(blk)/w))
			dst = append(dst, byte(EncRaw), 0, 0, 0, 0)
			body := len(dst)
			ok := false
			if enc == EncRLE {
				dst, ok = appendRLE(dst, blk)
			}
			if ok {
				dst[hdr+8] = byte(EncRLE)
			} else {
				dst = append(dst, blk...)
			}
			binary.BigEndian.PutUint32(dst[hdr+9:], uint32(len(dst)-body))
		}
	}
	binary.BigEndian.PutUint32(dst[start+4:], uint32(tiles))
	return dst, tiles
}

// appendRLE appends the (count, value) runs of a tile's block, read
// row-major with runs continuing across row ends, or appends nothing and
// reports false when the RLE body would not be smaller than the block.
//
// A block with c value changes has c+1 maximal runs, and at most 256
// pixels: a run longer than 255 fills the whole block, whose body (two
// runs) is then 4 bytes. So the body is 2·(c+1) bytes whenever that
// could reach the block's size, and the test below is exact.
func appendRLE(dst []byte, blk []uint8) ([]byte, bool) {
	var marks [TileSize * TileSize / 8]uint64
	if 2*(valueChanges(blk, marks[:])+1) >= len(blk) {
		return dst, false
	}
	start := 0 // first pixel of the current run
	for j, m := range marks[:(len(blk)+6)/8] {
		for ; m != 0; m &= m - 1 {
			i := 8*j + bits.TrailingZeros64(m)/8 + 1 // first pixel of the next run
			dst = append(dst, byte(i-start), blk[start])
			start = i
		}
	}
	for n := len(blk) - start; n > 0; n -= 255 {
		dst = append(dst, byte(min(n, 255)), blk[start])
	}
	return dst, true
}

// valueChanges counts the i in [1, len(b)) with b[i] != b[i-1], eight
// neighbour pairs per step. For each such i it sets the high bit of byte
// lane (i-1)%8 of marks[(i-1)/8]; every other bit of the first
// (len(b)+6)/8 words, which marks must hold, is cleared.
func valueChanges(b []uint8, marks []uint64) int {
	n, j := 0, 0
	for ; len(b) >= 9; j++ {
		x := binary.LittleEndian.Uint64(b[:8]) ^ binary.LittleEndian.Uint64(b[1:9])
		// A lane's high bit ends up set exactly when the lane is nonzero;
		// no carry crosses lanes.
		m := (((x &^ highs) + ^highs) | x) & highs
		marks[j] = m
		n += bits.OnesCount64(m)
		b = b[8:]
	}
	if len(b) > 1 {
		var m uint64
		for i := 1; i < len(b); i++ {
			if b[i] != b[i-1] {
				m |= 0x80 << (8 * (i - 1))
				n++
			}
		}
		marks[j] = m
	}
	return n
}

// applyUpdate writes the tiles of a wire-format update into f and
// returns how many it carried. A first pass checks every header, so a
// structurally malformed update writes nothing; the second decodes each
// tile's body in place. A decode fault leaves the tiles before it, and
// the faulty tile's prefix, written.
func applyUpdate(f *Framebuffer, data []byte) (int, error) {
	if len(data) < updateHeaderLen {
		return 0, errors.New("rfb: short update header")
	}
	count := binary.BigEndian.Uint32(data[4:8])
	if count > 1<<20 {
		return 0, fmt.Errorf("rfb: unreasonable tile count %d", count)
	}
	off := updateHeaderLen
	for i := uint32(0); i < count; i++ {
		if off+tileHeaderLen > len(data) {
			return 0, errors.New("rfb: short tile header")
		}
		off += tileHeaderLen + int(binary.BigEndian.Uint32(data[off+9:]))
		if off > len(data) {
			return 0, errors.New("rfb: short tile data")
		}
	}
	if off != len(data) {
		return 0, fmt.Errorf("rfb: %d trailing bytes", len(data)-off)
	}
	for off = updateHeaderLen; off < len(data); {
		r := Rect{
			X: int(binary.BigEndian.Uint16(data[off:])),
			Y: int(binary.BigEndian.Uint16(data[off+2:])),
			W: int(binary.BigEndian.Uint16(data[off+4:])),
			H: int(binary.BigEndian.Uint16(data[off+6:])),
		}
		enc := Encoding(data[off+8])
		n := int(binary.BigEndian.Uint32(data[off+9:]))
		off += tileHeaderLen
		if err := DecodeTile(f, r, enc, data[off:off+n]); err != nil {
			return 0, err
		}
		off += n
	}
	return int(count), nil
}
