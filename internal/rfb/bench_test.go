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

// benchServe times the server's reply to a full-frame request: every
// tile encoded into a reply buffer, which sent then returns to the free
// list, as netsim does once the reply's last fragment leaves the link.
func benchServe(b *testing.B, noisy bool, enc Encoding) {
	s := &Server{fb: benchFB(b, noisy), enc: enc}
	req := []byte{reqFull}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, sent := s.serve(0, req)
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

// benchApply times applying a full noisy frame, sent raw as RLE cannot
// shrink it, from its wire bytes to dst with apply.
func benchApply[F any](b *testing.B, dst F, apply func(F, []byte) error) {
	src := benchFB(b, true)
	src.MarkAllDirty()
	wire, _ := appendUpdate(nil, src, 1, EncRLE)
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := apply(dst, wire); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpdateUnmarshalApply times the client's apply straight from
// the wire: it checks the headers, then decodes every tile in place.
func BenchmarkUpdateUnmarshalApply(b *testing.B) {
	benchApply(b, benchFB(b, false), func(f *Framebuffer, wire []byte) error {
		_, err := applyUpdate(f, wire)
		return err
	})
}

// BenchmarkUpdateUnmarshalApplyRef is the reference twin of
// BenchmarkUpdateUnmarshalApply: it parses the update into its tiles and
// writes them one pixel at a time into the dense reference framebuffer.
// CI gates the ratio of the two.
func BenchmarkUpdateUnmarshalApplyRef(b *testing.B) {
	benchApply(b, benchRefFB(), func(f *refFB, wire []byte) error {
		u, err := UnmarshalUpdate(wire)
		if err != nil {
			return err
		}
		return refApply(f, u)
	})
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
