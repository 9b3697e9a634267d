package rfb

import (
	"math/rand"
	"testing"
)

func benchFB(b *testing.B, noisy bool) *Framebuffer {
	b.Helper()
	fb, err := NewFramebuffer(640, 480)
	if err != nil {
		b.Fatal(err)
	}
	if noisy {
		rng := rand.New(rand.NewSource(1))
		for y := 0; y < fb.H; y++ {
			for x := 0; x < fb.W; x++ {
				fb.Set(x, y, uint8(rng.Intn(256)))
			}
		}
	} else {
		fb.Fill(0, 0, fb.W, fb.H, 7)
	}
	return fb
}

// benchServe times the server's reply to a request after every tile is
// marked dirty: every tile encoded into a reply buffer, which sent then
// returns to the free list, as netsim does once the reply's last
// fragment leaves the link.
func benchServe(b *testing.B, noisy bool, enc Encoding) {
	s := &Server{fb: benchFB(b, noisy), enc: enc}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.fb.MarkAllDirty()
		resp, sent := s.serve(0, incremental)
		if len(resp) == updateHeaderLen {
			b.Fatal("no tiles")
		}
		sent()
	}
}

func BenchmarkEncodeFullFrameRaw(b *testing.B)      { benchServe(b, true, EncRaw) }
func BenchmarkEncodeFullFrameRLEFlat(b *testing.B)  { benchServe(b, false, EncRLE) }
func BenchmarkEncodeFullFrameRLENoisy(b *testing.B) { benchServe(b, true, EncRLE) }

// benchRefFB is the reference twin of benchFB(b, false): a 640×480
// reference framebuffer filled with one colour.
func benchRefFB() *refFB {
	f := newRefFB(640, 480)
	refFill(f, 0, 0, f.W, f.H, 7)
	return f
}

// BenchmarkUpdateCheck times the display side's framing check of a full
// noisy frame, sent raw as RLE cannot shrink it.
func BenchmarkUpdateCheck(b *testing.B) {
	src := benchFB(b, true)
	src.MarkAllDirty()
	wire, tiles := appendUpdate(nil, src, 1, EncRLE)
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err := checkUpdate(wire); err != nil || n != tiles {
			b.Fatalf("counted %d tiles, error %v; want %d", n, err, tiles)
		}
	}
}

// benchFill alternates two colours over a 200×150 rectangle of fb that
// straddles tile edges, so every row changes.
func benchFill[F any](b *testing.B, fb F, fill func(f F, x, y, w, h int, v uint8)) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fill(fb, 37, 21, 200, 150, uint8(i&1))
	}
}

func BenchmarkFramebufferFill(b *testing.B) { benchFill(b, benchFB(b, false), (*Framebuffer).Fill) }

// BenchmarkFramebufferFillRef is the per-pixel reference twin of
// BenchmarkFramebufferFill, on the dense reference framebuffer; CI gates
// the ratio of the two.
func BenchmarkFramebufferFillRef(b *testing.B) { benchFill(b, benchRefFB(), refFill) }

// benchStep times animation frames of a 5% square, textured or solid.
func benchStep(b *testing.B, textured bool) {
	fb := benchFB(b, false)
	a, err := NewAnimator(fb, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	a.Textured = textured
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Step()
	}
}

func BenchmarkAnimatorStep(b *testing.B) { benchStep(b, true) }

// BenchmarkAnimatorStepSolid draws the solid square the lab and
// smartprojector scenarios animate.
func BenchmarkAnimatorStepSolid(b *testing.B) { benchStep(b, false) }
