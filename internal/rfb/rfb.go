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
// A framebuffer stores its pixels sparsely, one pointer per 16×16 tile
// of the protocol, in row-major tile order. A nil pointer means every
// pixel of the tile is zero, and reads of it go to one shared, read-only
// zero tile. A tile with storage holds its pixels as a row-major w×h
// block whose stride is the tile's width; edge tiles are narrower or
// shorter and use a prefix of the storage, the rest of which stays zero.
// Every tile is one contiguous slice: a raw tile is encoded by one
// append. Every write goes through put, which compares old and new
// pixels only while the tile is clean, so a tile is dirty exactly when
// one of its pixels changed since the last update.
//
// A tile takes storage, from the framebuffer's free list of all-zero
// tiles or else new, on the first write that makes one of its pixels
// non-zero; writing zeros to a nil tile changes nothing. It gives its
// storage back only where the code already knows the tile is all zero,
// so no write pays for a scan: the RLE encoder releases a dirty tile
// with no value change whose first pixel is 0. So a served screen holds
// storage for about the tiles something is drawn on; the display side
// holds no framebuffer at all. A screen nothing draws on costs its
// W·H/256 tile pointers: 24 KiB at 1024×768.
//
// The dirty flags are a bitmap, one bit per tile in row-major tile
// order, 64 tiles to a word. The encoder walks it with TrailingZeros64
// and skips clean words whole, so a poll of a mostly static 1024×768
// screen reads 48 words rather than 3072 flags. Ascending bit order is
// row-major tile order, which is the order tiles travel on the wire.
//
// # Wire path
//
// The server encodes each reply straight onto the wire from its tiles.
// The display side counts what it receives without painting it: the
// model reads its tiles and bytes, never its pixels. One pass over the
// reply checks the update header, every tile header and body length,
// and that no bytes trail; it builds nothing and writes nothing. No
// production code decodes a tile body; the tests' reference decoder
// does, and holds the encoder to its pixels.
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

// tileBlock is the storage of one tile: its row-major block in the
// first w·h bytes, zero beyond.
type tileBlock [TileSize * TileSize]uint8

// zeroTile holds the pixels of every tile without storage. Nothing
// writes it.
var zeroTile tileBlock

// Framebuffer is a W×H 8-bit pixel surface with per-tile dirty tracking.
type Framebuffer struct {
	W, H   int
	tiles  []*tileBlock // row-major; nil is all zero (see the package doc)
	free   []*tileBlock // all-zero storage no tile holds
	tilesX int
	dirty  []uint64 // bit t%64 of word t/64 is tile t's flag
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
		tiles:  make([]*tileBlock, tx*ty),
		tilesX: tx,
		dirty:  make([]uint64, (tx*ty+63)/64),
	}, nil
}

// block returns the pixels of tile t, whose top-left pixel is (x, y),
// and the tile's width, which is the block's stride. A tile without
// storage reads as the zero tile, which must not be written.
func (f *Framebuffer) block(t, x, y int) ([]uint8, int) {
	tw, hb := min(TileSize, f.W-x), min(TileSize, f.H-y)
	p := f.tiles[t]
	if p == nil {
		p = &zeroTile
	}
	return p[:tw*hb], tw
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

// take gives tile t storage, all zero, from the free list or else new.
func (f *Framebuffer) take(t int) *tileBlock {
	var p *tileBlock
	if n := len(f.free); n > 0 {
		p = f.free[n-1]
		f.free = f.free[:n-1]
	} else {
		p = new(tileBlock)
	}
	f.tiles[t] = p
	return p
}

// release returns the storage of tile t, which the caller knows to be
// all zero, to the free list.
func (f *Framebuffer) release(t int) {
	if p := f.tiles[t]; p != nil {
		f.free = append(f.free, p)
		f.tiles[t] = nil
	}
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
// same stride are one contiguous range and take a single put. A tile
// without storage is all zero, so it changes, and takes storage, only
// if src holds a non-zero pixel.
func (f *Framebuffer) putTile(x0, y0, x1, y1 int, src []uint8, stride int) {
	bx, by := x0&^(TileSize-1), y0&^(TileSize-1)
	tw := min(TileSize, f.W-bx)
	t := (by/TileSize)*f.tilesX + bx/TileSize
	w := x1 - x0
	p := f.tiles[t]
	if p == nil {
		if allZero(src, w, y1-y0, stride) {
			return
		}
		p = f.take(t)
		f.dirty[t/64] |= 1 << (t % 64)
	}
	if w == tw && stride == w {
		f.put(t, p[(y0-by)*w:(y1-by)*w], src[:(y1-y0)*w])
		return
	}
	for y := y0; y < y1; y++ {
		k := (y - y0) * stride
		f.put(t, p[(y-by)*tw+x0-bx:][:w], src[k:k+w])
	}
}

// allZero reports whether rows rows of w pixels, row k at
// src[k·stride:], are all zero. They lie within one tile.
func allZero(src []uint8, w, rows, stride int) bool {
	if stride == w {
		w, rows = w*rows, 1 // one contiguous range
	}
	for k := 0; k < rows; k++ {
		if !bytes.Equal(src[k*stride:][:w], zeroTile[:w]) {
			return false
		}
	}
	return true
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
// stored block. The RLE encoder also releases the storage of every tile
// it finds all zero.
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
			blk, w := f.block(i, x, y)
			hdr := len(dst)
			dst = binary.BigEndian.AppendUint16(dst, uint16(x))
			dst = binary.BigEndian.AppendUint16(dst, uint16(y))
			dst = binary.BigEndian.AppendUint16(dst, uint16(w))
			dst = binary.BigEndian.AppendUint16(dst, uint16(len(blk)/w))
			dst = append(dst, byte(EncRaw), 0, 0, 0, 0)
			body := len(dst)
			ok, flat := false, false
			if enc == EncRLE {
				dst, ok, flat = appendRLE(dst, blk)
			}
			if ok {
				dst[hdr+8] = byte(EncRLE)
			} else {
				dst = append(dst, blk...)
			}
			binary.BigEndian.PutUint32(dst[hdr+9:], uint32(len(dst)-body))
			if flat && blk[0] == 0 {
				f.release(i)
			}
		}
	}
	binary.BigEndian.PutUint32(dst[start+4:], uint32(tiles))
	return dst, tiles
}

// appendRLE appends the (count, value) runs of a tile's block, read
// row-major with runs continuing across row ends, or appends nothing and
// reports false when the RLE body would not be smaller than the block.
// flat reports whether the block holds one value throughout.
//
// A block with c value changes has c+1 maximal runs, and at most 256
// pixels: a run longer than 255 fills the whole block, whose body (two
// runs) is then 4 bytes. So the body is 2·(c+1) bytes whenever that
// could reach the block's size, and the test below is exact.
func appendRLE(dst []byte, blk []uint8) (out []byte, ok, flat bool) {
	var marks [TileSize * TileSize / 8]uint64
	c := valueChanges(blk, marks[:])
	if 2*(c+1) >= len(blk) {
		return dst, false, c == 0
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
	return dst, true, c == 0
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

// checkUpdate checks the framing of a wire-format update and returns
// how many tiles it carries: the update header, every tile header and
// body length, and that no bytes follow the last tile. It reads no tile
// body.
func checkUpdate(data []byte) (int, error) {
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
	return int(count), nil
}
