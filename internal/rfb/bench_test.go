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
// tile encoded into the scratch buffer plus the exact-size reply copy.
func benchServe(b *testing.B, noisy bool, enc Encoding) {
	s := &Server{fb: benchFB(b, noisy), enc: enc}
	req := []byte{reqFull}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.serve(0, req)) == updateHeaderLen {
			b.Fatal("no tiles")
		}
	}
}

func BenchmarkEncodeFullFrameRaw(b *testing.B)      { benchServe(b, true, EncRaw) }
func BenchmarkEncodeFullFrameRLEFlat(b *testing.B)  { benchServe(b, false, EncRLE) }
func BenchmarkEncodeFullFrameRLENoisy(b *testing.B) { benchServe(b, true, EncRLE) }

func BenchmarkUpdateUnmarshalApply(b *testing.B) {
	src := benchFB(b, true)
	src.MarkAllDirty()
	wire, _ := appendUpdate(nil, src, 1, EncRLE)
	dst := benchFB(b, false)
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := UnmarshalUpdate(wire)
		if err != nil {
			b.Fatal(err)
		}
		if err := Apply(dst, v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFramebufferFill alternates two colours over a 200×150
// rectangle that straddles tile edges, so every row changes.
func BenchmarkFramebufferFill(b *testing.B) {
	fb := benchFB(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fb.Fill(37, 21, 200, 150, uint8(i&1))
	}
}

func BenchmarkAnimatorStep(b *testing.B) {
	fb := benchFB(b, false)
	a, err := NewAnimator(fb, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	a.Textured = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Step()
	}
}
