package rfb

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

func mustFB(t *testing.T, w, h int) *Framebuffer {
	t.Helper()
	fb, err := NewFramebuffer(w, h)
	if err != nil {
		t.Fatal(err)
	}
	return fb
}

// encodeUpdate runs the production encoder over fb's dirty tiles and
// parses the wire bytes it produced.
func encodeUpdate(t testing.TB, fb *Framebuffer, serial uint32, enc Encoding) (*Update, []byte) {
	t.Helper()
	wire, tiles := appendUpdate(nil, fb, serial, enc)
	u, err := UnmarshalUpdate(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Tiles) != tiles {
		t.Fatalf("encoder reported %d tiles, wire carries %d", tiles, len(u.Tiles))
	}
	return u, wire
}

// tileRects lists the rectangles of an update's tiles in wire order.
func tileRects(u *Update) []Rect {
	var out []Rect
	for _, tu := range u.Tiles {
		out = append(out, tu.Rect)
	}
	return out
}

func TestNewFramebufferValidation(t *testing.T) {
	if _, err := NewFramebuffer(0, 10); err == nil {
		t.Fatal("zero width accepted")
	}
	if _, err := NewFramebuffer(10, -1); err == nil {
		t.Fatal("negative height accepted")
	}
	// Rect fields travel as uint16: a wider or taller framebuffer would
	// silently truncate tile coordinates on the wire.
	if _, err := NewFramebuffer(1<<16, 1); err == nil {
		t.Fatal("width beyond the wire limit accepted")
	}
	if _, err := NewFramebuffer(1, 1<<16); err == nil {
		t.Fatal("height beyond the wire limit accepted")
	}
	if _, err := NewFramebuffer(65535, 1); err != nil {
		t.Fatalf("width at the wire limit rejected: %v", err)
	}
	if _, err := NewFramebuffer(1, 65535); err != nil {
		t.Fatalf("height at the wire limit rejected: %v", err)
	}
}

func TestSetAndPixel(t *testing.T) {
	fb := mustFB(t, 64, 48)
	fb.Set(10, 20, 99)
	if fb.Pixel(10, 20) != 99 {
		t.Fatal("pixel not set")
	}
	if fb.Pixel(-1, 0) != 0 || fb.Pixel(0, 100) != 0 {
		t.Fatal("out-of-bounds read not zero")
	}
	fb.Set(-5, -5, 1) // must not panic
	fb.Set(64, 48, 1) // must not panic
}

// Every pixel of a framebuffer whose sides are not tile multiples has
// its own byte of the W·H store, reads back what was set, and sits in
// its tile's contiguous block at the tile-major offset.
func TestPixelSetRoundTripTileMajor(t *testing.T) {
	const w, h = 33, 17
	fb := mustFB(t, w, h)
	if len(fb.pix) != w*h {
		t.Fatalf("len(pix) = %d, want %d", len(fb.pix), w*h)
	}
	seen := make([]bool, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := fb.index(x, y)
			if seen[i] {
				t.Fatalf("(%d, %d) shares byte %d with another pixel", x, y, i)
			}
			seen[i] = true
			fb.Set(x, y, uint8(x*7+y*13+1))
		}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if got, want := fb.Pixel(x, y), uint8(x*7+y*13+1); got != want {
				t.Fatalf("Pixel(%d, %d) = %d, want %d", x, y, got, want)
			}
		}
	}
	for by := 0; by < h; by += TileSize {
		for bx := 0; bx < w; bx += TileSize {
			blk, tw := fb.block(bx, by)
			th := min(TileSize, h-by)
			if tw != min(TileSize, w-bx) || len(blk) != tw*th {
				t.Fatalf("tile (%d, %d): stride %d, %d bytes", bx, by, tw, len(blk))
			}
			for i, p := range blk {
				if want := fb.Pixel(bx+i%tw, by+i/tw); p != want {
					t.Fatalf("tile (%d, %d) byte %d = %d, want %d", bx, by, i, p, want)
				}
			}
		}
	}
}

func TestValueChangesMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 0; n <= 300; n++ {
		for _, constant := range []bool{false, true} {
			b := make([]uint8, n)
			for i := range b {
				if constant {
					b[i] = 9
				} else {
					b[i] = uint8(rng.Intn(3)) // runs of varied length
				}
			}
			marks := make([]uint64, (n+6)/8)
			for i := range marks {
				marks[i] = ^uint64(0) // stale bits must be cleared
			}
			want, wantMarks := 0, make([]uint64, len(marks))
			for i := 1; i < n; i++ {
				if b[i] != b[i-1] {
					want++
					wantMarks[(i-1)/8] |= 0x80 << (8 * ((i - 1) % 8))
				}
			}
			if got := valueChanges(b, marks); got != want {
				t.Fatalf("len %d constant %v: %d changes, want %d", n, constant, got, want)
			}
			if !slices.Equal(marks, wantMarks) {
				t.Fatalf("len %d constant %v: marks %x, want %x", n, constant, marks, wantMarks)
			}
		}
	}
}

func TestDirtyTracking(t *testing.T) {
	fb := mustFB(t, 64, 64) // 4x4 tiles
	if fb.DirtyCount() != 0 {
		t.Fatal("fresh fb dirty")
	}
	fb.Set(0, 0, 1)
	fb.Set(63, 63, 1)
	if fb.DirtyCount() != 2 {
		t.Fatalf("dirty = %d, want 2", fb.DirtyCount())
	}
	u, _ := encodeUpdate(t, fb, 1, EncRaw)
	tiles := tileRects(u)
	if len(tiles) != 2 {
		t.Fatalf("tiles = %v", tiles)
	}
	if tiles[0] != (Rect{0, 0, 16, 16}) || tiles[1] != (Rect{48, 48, 16, 16}) {
		t.Fatalf("tile rects = %v", tiles)
	}
	if fb.DirtyCount() != 0 {
		t.Fatal("taking an update did not clear the dirty set")
	}
	// Writing the same value is not a visual change.
	fb.Set(0, 0, 1)
	if fb.DirtyCount() != 0 {
		t.Fatal("no-op write marked dirty")
	}
}

func TestDirtyTilesClippedAtEdges(t *testing.T) {
	fb := mustFB(t, 20, 20) // 2x2 tiles, second row/col clipped to 4
	fb.Set(19, 19, 5)
	u, _ := encodeUpdate(t, fb, 1, EncRaw)
	tiles := tileRects(u)
	if len(tiles) != 1 {
		t.Fatalf("tiles = %v", tiles)
	}
	if tiles[0] != (Rect{16, 16, 4, 4}) {
		t.Fatalf("clipped tile = %v", tiles[0])
	}
}

func TestMarkAllDirty(t *testing.T) {
	fb := mustFB(t, 64, 64)
	fb.MarkAllDirty()
	if fb.DirtyCount() != 16 {
		t.Fatalf("dirty = %d, want 16", fb.DirtyCount())
	}
}

// MarkAllDirty sets exactly one bit per tile, whatever the tile count's
// remainder modulo the 64-bit word, and the encoder then sends each
// tile once, in row-major order.
func TestMarkAllDirtyMasksTail(t *testing.T) {
	for _, tc := range []struct{ w, h int }{{1, 1}, {16, 16}, {1008, 16}, {1024, 16}, {1040, 16}, {33, 65}, {1024, 768}} {
		fb := mustFB(t, tc.w, tc.h)
		fb.MarkAllDirty()
		n := fb.tilesX * fb.tilesY
		if got := fb.DirtyCount(); got != n {
			t.Fatalf("%dx%d: %d dirty bits, want %d tiles", tc.w, tc.h, got, n)
		}
		u, _ := encodeUpdate(t, fb, 1, EncRaw)
		if len(u.Tiles) != n {
			t.Fatalf("%dx%d: %d tiles sent, want %d", tc.w, tc.h, len(u.Tiles), n)
		}
		for i, tu := range u.Tiles {
			if want := (Rect{X: i % fb.tilesX * TileSize, Y: i / fb.tilesX * TileSize}); tu.Rect.X != want.X || tu.Rect.Y != want.Y {
				t.Fatalf("%dx%d: tile %d at (%d, %d), want (%d, %d)", tc.w, tc.h, i, tu.Rect.X, tu.Rect.Y, want.X, want.Y)
			}
		}
		if fb.DirtyCount() != 0 || slices.ContainsFunc(fb.dirty, func(w uint64) bool { return w != 0 }) {
			t.Fatalf("%dx%d: the update left dirty bits", tc.w, tc.h)
		}
	}
}

func TestRawRoundTrip(t *testing.T) {
	src := mustFB(t, 32, 32)
	for i := 0; i < 200; i++ {
		src.Set(i%32, (i*7)%32, uint8(i))
	}
	dst := mustFB(t, 32, 32)
	src.MarkAllDirty()
	u, _ := encodeUpdate(t, src, 1, EncRaw)
	want := []Rect{{0, 0, 16, 16}, {16, 0, 16, 16}, {0, 16, 16, 16}, {16, 16, 16, 16}}
	if got := tileRects(u); !slices.Equal(got, want) {
		t.Fatalf("tile rects = %v, want %v", got, want)
	}
	for _, tu := range u.Tiles {
		if tu.Enc != EncRaw {
			t.Fatal("raw request changed encoding")
		}
		if err := DecodeTile(dst, tu.Rect, tu.Enc, tu.Data); err != nil {
			t.Fatal(err)
		}
	}
	if !src.Equal(dst) {
		t.Fatal("raw round trip corrupted")
	}
}

func TestRLERoundTrip(t *testing.T) {
	src := mustFB(t, 32, 32)
	src.Fill(0, 0, 32, 32, 7)
	src.Fill(4, 4, 8, 8, 2)
	dst := mustFB(t, 32, 32)
	u, _ := encodeUpdate(t, src, 1, EncRLE)
	body := 0
	for _, tu := range u.Tiles {
		if tu.Enc != EncRLE {
			t.Fatal("compressible tile fell back to raw")
		}
		body += len(tu.Data)
		if err := DecodeTile(dst, tu.Rect, tu.Enc, tu.Data); err != nil {
			t.Fatal(err)
		}
	}
	if body >= 32*32 {
		t.Fatalf("RLE did not compress: %d bytes", body)
	}
	if !src.Equal(dst) {
		t.Fatal("RLE round trip corrupted")
	}
}

func TestRLEFallbackOnNoise(t *testing.T) {
	src := mustFB(t, 16, 16)
	rng := rand.New(rand.NewSource(3))
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			src.Set(x, y, uint8(rng.Intn(250)))
		}
	}
	u, _ := encodeUpdate(t, src, 1, EncRLE)
	if len(u.Tiles) != 1 || u.Tiles[0].Rect != (Rect{0, 0, 16, 16}) {
		t.Fatalf("tiles = %v", tileRects(u))
	}
	if tu := u.Tiles[0]; tu.Enc != EncRaw {
		t.Fatalf("noisy tile should fall back to raw, got %v (%d bytes)", tu.Enc, len(tu.Data))
	}
}

func TestDecodeErrors(t *testing.T) {
	fb := mustFB(t, 16, 16)
	r := Rect{0, 0, 16, 16}
	if err := DecodeTile(fb, r, EncRaw, make([]byte, 5)); err == nil {
		t.Fatal("short raw accepted")
	}
	if err := DecodeTile(fb, r, EncRLE, []byte{1}); err == nil {
		t.Fatal("odd RLE accepted")
	}
	if err := DecodeTile(fb, r, EncRLE, []byte{0, 7}); err == nil {
		t.Fatal("zero run accepted")
	}
	if err := DecodeTile(fb, r, EncRLE, []byte{255, 1, 255, 1}); err == nil {
		t.Fatal("underfull RLE accepted")
	}
	if err := DecodeTile(fb, r, Encoding(9), nil); err == nil {
		t.Fatal("unknown encoding accepted")
	}
}

func TestUpdateMarshalRoundTrip(t *testing.T) {
	fb := mustFB(t, 48, 48)
	fb.Fill(0, 0, 48, 48, 3)
	fb.Fill(10, 10, 20, 20, 8)
	data, tiles := appendUpdate(nil, fb, 42, EncRLE)
	if fb.DirtyCount() != 0 {
		t.Fatal("appendUpdate did not clear dirty")
	}
	v, err := UnmarshalUpdate(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != refWireSize(v) {
		t.Fatalf("wire size %d != encoded len %d", refWireSize(v), len(data))
	}
	if v.Serial != 42 || len(v.Tiles) != tiles {
		t.Fatalf("round trip lost data: %+v", v)
	}
	dst := mustFB(t, 48, 48)
	if n, err := applyUpdate(dst, data); err != nil || n != tiles {
		t.Fatalf("applied %d tiles, err %v; want %d", n, err, tiles)
	}
	if !fb.Equal(dst) {
		t.Fatal("apply did not reproduce source")
	}
}

// Malformed updates fail the reference parser, and the wire apply with
// the same error before it writes a pixel.
func TestUnmarshalErrors(t *testing.T) {
	fb := mustFB(t, 32, 32)
	fb.Fill(0, 0, 32, 32, 6)
	data, _ := appendUpdate(nil, fb, 1, EncRaw)
	withCount := func(n uint32) []byte {
		d := bytes.Clone(data)
		binary.BigEndian.PutUint32(d[4:], n)
		return d
	}
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"short header", []byte{1, 2}, "rfb: short update header"},
		{"truncated tile data", data[:len(data)-3], "rfb: short tile data"},
		{"truncated tile header", withCount(5), "rfb: short tile header"},
		{"trailing bytes", append(bytes.Clone(data), 1), "rfb: 1 trailing bytes"},
		{"count short of the tiles", withCount(3), "rfb: 269 trailing bytes"},
		{"oversized tile count", withCount(1<<20 + 1), "rfb: unreasonable tile count 1048577"},
	} {
		if _, err := UnmarshalUpdate(tc.data); errText(err) != tc.want {
			t.Errorf("%s: reference parse error %q, want %q", tc.name, errText(err), tc.want)
		}
		dst := mustFB(t, 32, 32)
		if n, err := applyUpdate(dst, tc.data); n != 0 || errText(err) != tc.want {
			t.Errorf("%s: wire apply gave %d tiles, error %q; want 0, %q", tc.name, n, errText(err), tc.want)
		}
		if !dst.Equal(mustFB(t, 32, 32)) || dst.DirtyCount() != 0 {
			t.Errorf("%s: a malformed update wrote the framebuffer", tc.name)
		}
	}
}

// A tile that fails to decode keeps every tile before it, and its own
// decoded prefix, exactly as the parse-then-apply reference does.
func TestApplyUpdateKeepsPrefixOnDecodeFault(t *testing.T) {
	src := mustFB(t, 32, 16)
	src.Fill(0, 0, 32, 16, 4)
	wire, _ := appendUpdate(nil, src, 1, EncRLE)
	u, err := UnmarshalUpdate(bytes.Clone(wire))
	if err != nil || len(u.Tiles) != 2 || u.Tiles[1].Enc != EncRLE {
		t.Fatalf("unexpected update %+v, %v", u, err)
	}
	u.Tiles[1].Data = []byte{200, 9, 0, 9} // a 200-pixel run, then a zero run
	bad := refMarshal(u)
	got, want := mustFB(t, 32, 16), mustFB(t, 32, 16)
	n, gotErr := applyUpdate(got, bad)
	wantErr := Apply(want, u)
	if n != 0 || errText(gotErr) != errText(wantErr) || wantErr == nil {
		t.Fatalf("wire apply gave %d tiles, error %v; reference error %v", n, gotErr, wantErr)
	}
	sameFB(t, "client after a decode fault", got, want)
	if got.Pixel(0, 0) != 4 || got.Pixel(16, 0) != 9 || got.Pixel(31, 15) != 0 {
		t.Fatal("the first tile or the faulty tile's prefix was not kept")
	}
}

// Applying a full frame from the wire allocates nothing.
func TestApplyUpdateAllocatesNothing(t *testing.T) {
	src := mustFB(t, 160, 120)
	for i := 0; i < 500; i++ {
		src.Set(i*37%160, i*11%120, uint8(i))
	}
	src.MarkAllDirty()
	wire, _ := appendUpdate(nil, src, 1, EncRLE)
	dst := mustFB(t, 160, 120)
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := applyUpdate(dst, wire); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("wire apply made %v allocations", allocs)
	}
	if !src.Equal(dst) {
		t.Fatal("wire apply did not reproduce the source")
	}
}

// A header that claims far more tiles than the body can hold fails on
// the body, in the reference parser and in the wire apply, without
// allocating for the claimed count.
func TestUnmarshalHugeCountFailsFast(t *testing.T) {
	data := make([]byte, updateHeaderLen+tileHeaderLen)
	binary.BigEndian.PutUint32(data[4:], 1<<20)
	if _, err := UnmarshalUpdate(data); err == nil {
		t.Fatal("short body with a huge tile count accepted")
	}
	fb := mustFB(t, 16, 16)
	if _, err := applyUpdate(fb, data); err == nil {
		t.Fatal("wire apply accepted a short body with a huge tile count")
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		_, _ = UnmarshalUpdate(data) // both fail as above; only the allocation matters
		_, _ = applyUpdate(fb, data)
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / runs; perCall > 1024 {
		t.Fatalf("failed parse and apply allocated %d bytes per call", perCall)
	}
}

func TestIncrementalOnlySendsChanges(t *testing.T) {
	fb := mustFB(t, 160, 160) // 100 tiles
	fb.MarkAllDirty()
	full, fullWire := encodeUpdate(t, fb, 1, EncRaw)
	if len(full.Tiles) != 100 {
		t.Fatalf("full = %d tiles", len(full.Tiles))
	}
	fb.Set(5, 5, 9) // one tile's worth of change
	inc, incWire := encodeUpdate(t, fb, 2, EncRaw)
	if len(inc.Tiles) != 1 {
		t.Fatalf("incremental = %d tiles, want 1", len(inc.Tiles))
	}
	if len(incWire) >= len(fullWire)/50 {
		t.Fatalf("incremental too large: %d vs full %d", len(incWire), len(fullWire))
	}
}

func TestAnimatorDirtiesBoundedArea(t *testing.T) {
	fb := mustFB(t, 320, 240)
	a, err := NewAnimator(fb, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	encodeUpdate(t, fb, 1, EncRaw) // start from a clean dirty set
	a.Step()
	// Square side ~ sqrt(0.05*320*240) = 62 → at most ~ (62/16+2)^2 tiles
	// dirty for erase+draw, far less than the full 300.
	if n := fb.DirtyCount(); n == 0 || n > 150 {
		t.Fatalf("animator dirtied %d tiles", n)
	}
	for i := 0; i < 1000; i++ {
		a.Step() // must stay in bounds without panicking
	}
	if a.Steps != 1001 {
		t.Fatalf("steps = %d", a.Steps)
	}
}

func TestAnimatorIntensityValidation(t *testing.T) {
	fb := mustFB(t, 32, 32)
	if _, err := NewAnimator(fb, 0); err == nil {
		t.Fatal("zero intensity accepted")
	}
	if _, err := NewAnimator(fb, 1.5); err == nil {
		t.Fatal(">1 intensity accepted")
	}
	if _, err := NewAnimator(fb, math.NaN()); err == nil {
		t.Fatal("NaN intensity accepted")
	}
	if _, err := NewAnimator(fb, math.Inf(-1)); err == nil {
		t.Fatal("-Inf intensity accepted")
	}
	if _, err := NewAnimator(fb, 1); err != nil {
		t.Fatal("full intensity rejected")
	}
}

func TestEncodingString(t *testing.T) {
	if EncRaw.String() != "raw" || EncRLE.String() != "rle" {
		t.Fatal("encoding names wrong")
	}
	if !bytes.Contains([]byte(Encoding(7).String()), []byte("7")) {
		t.Fatal("unknown encoding name")
	}
}

// Property: raw and RLE round trips reproduce any tile exactly.
func TestPropertyEncodingRoundTrip(t *testing.T) {
	f := func(pixels []byte, useRLE bool) bool {
		src := mustFBQuick(16, 16)
		for i, p := range pixels {
			if i >= 256 {
				break
			}
			src.Set(i%16, i/16, p)
		}
		want := EncRaw
		if useRLE {
			want = EncRLE
		}
		src.MarkAllDirty()
		u, _ := encodeUpdate(t, src, 1, want)
		if len(u.Tiles) != 1 || u.Tiles[0].Rect != (Rect{0, 0, 16, 16}) {
			return false
		}
		dst := mustFBQuick(16, 16)
		if err := DecodeTile(dst, Rect{0, 0, 16, 16}, u.Tiles[0].Enc, u.Tiles[0].Data); err != nil {
			return false
		}
		return src.Equal(dst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(31))}); err != nil {
		t.Fatal(err)
	}
}

// Property: encode and wire apply round-trip updates built from random
// writes.
func TestPropertyUpdateRoundTrip(t *testing.T) {
	f := func(ops []uint16) bool {
		fb := mustFBQuick(64, 64)
		for _, op := range ops {
			x := int(op % 64)
			y := int((op / 64) % 64)
			fb.Set(x, y, uint8(op))
		}
		wire, tiles := appendUpdate(nil, fb, 7, EncRLE)
		dst := mustFBQuick(64, 64)
		if n, err := applyUpdate(dst, wire); err != nil || n != tiles {
			return false
		}
		return fb.Equal(dst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(32))}); err != nil {
		t.Fatal(err)
	}
}

func mustFBQuick(w, h int) *Framebuffer {
	fb, err := NewFramebuffer(w, h)
	if err != nil {
		panic(err)
	}
	return fb
}
