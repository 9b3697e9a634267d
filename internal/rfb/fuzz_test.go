package rfb

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
)

// fuzzInput doles out the fuzzer's bytes; once they run out it yields
// zeros.
type fuzzInput []byte

func (in *fuzzInput) next() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

// coord returns a signed coordinate in [-128, 127], reaching past every
// edge of the small framebuffers the fuzzer builds.
func (in *fuzzInput) coord() int { return int(int8(in.next())) }

// size returns a side length in [1, 80].
func (in *fuzzInput) size() int { return 1 + int(in.next()%80) }

// sameFB fails the test unless got holds the pixels and dirty flags of
// the reference want, every tile of got without storage is all zero in
// want, and got's storage keeps its invariants (see storageFault).
func sameFB(t *testing.T, what string, got *Framebuffer, want *refFB) {
	t.Helper()
	if got.W != want.W || got.H != want.H {
		t.Fatalf("%s: %dx%d framebuffer, reference %dx%d", what, got.W, got.H, want.W, want.H)
	}
	for i, p := range got.tiles {
		x0, y0 := i%want.tilesX*TileSize, i/want.tilesX*TileSize
		blk, tw := got.block(i, x0, y0)
		for y := y0; y < min(y0+TileSize, want.H); y++ {
			row := want.pix[y*want.W+x0:][:tw]
			if !bytes.Equal(blk[(y-y0)*tw:][:tw], row) {
				t.Fatalf("%s: row %d of tile %d is %v, reference %v", what, y-y0, i, blk[(y-y0)*tw:][:tw], row)
			}
			if p == nil && !bytes.Equal(row, zeroTile[:tw]) {
				t.Fatalf("%s: tile %d has no storage, but row %d of it is %v in the reference", what, i, y-y0, row)
			}
		}
	}
	dirty := 0
	for i, d := range want.dirty {
		if got.isDirty(i) != d {
			t.Fatalf("%s: tile %d dirty %v, reference %v", what, i, got.isDirty(i), d)
		}
		if d {
			dirty++
		}
	}
	if n := got.DirtyCount(); n != dirty {
		t.Fatalf("%s: %d dirty bits for %d dirty tiles", what, n, dirty)
	}
	if msg := storageFault(got); msg != "" {
		t.Fatalf("%s: %s", what, msg)
	}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// FuzzUpdateMatchesReference drives the production framebuffer writes
// and encoder and the reference model in ref_test.go through the same
// program of fills, sets, textured draws, animation steps and updates,
// and requires identical wire bytes, pixels and dirty flags, with the
// reference a dense framebuffer that shares no storage with the sparse
// one; after every operation the sparse store's invariants must hold
// (see sameFB). Each update's wire bytes may then be corrupted, as bytes
// or as individual tiles (payload bytes, truncation, extra runs,
// encoding and rectangle; a tile-level change is marshalled again). On
// every wire, the framing check must give the reference parser's error
// text and tile count. A parsed update is decoded into a reference
// client that may be a different size; while it is the server's size
// and no update so far was corrupted, it must decode without error to
// the server's pixels.
func FuzzUpdateMatchesReference(f *testing.F) {
	f.Add([]byte{64, 48, 0, 1, 2, 0, 0, 0, 0, 127, 127, 7, 5, 1, 10, 10, 5, 3, 5, 0})
	// A 32×16 screen filled with one colour is two raw tiles. The update
	// then has its tile count's low byte flipped to 3, one tile more than
	// the body holds (a truncated tile header), or to 1, one tile short
	// (trailing bytes), or its top byte set (an oversized count).
	flat := []byte{31, 15, 0, 0, 0, 0, 0, 0, 0, 127, 127, 9, 5, 1}
	f.Add(append(slices.Clip(flat), 0, 7, 1))
	f.Add(append(slices.Clip(flat), 0, 7, 3))
	f.Add(append(slices.Clip(flat), 0, 4, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		w, h := in.size(), in.size()
		cw, ch := w, h
		if in.next()&1 == 1 {
			cw, ch = in.size(), in.size()
		}
		enc := Encoding(in.next() % 3) // 2 is unknown: the encoder sends raw
		intensity := float64(1+in.next()%100) / 100
		textured := in.next()&1 == 1

		srv, ref := mustFBQuick(w, h), newRefFB(w, h)
		refCli := newRefFB(cw, ch)
		synced := cw == w && ch == h // refCli must hold ref's pixels
		anim, err := NewAnimator(srv, intensity)
		if err != nil {
			t.Fatal(err)
		}
		anim.Textured = textured
		refAnim := *anim

		var scratch []byte
		var serial uint32
		update := func() {
			serial++
			var tiles int
			scratch, tiles = appendUpdate(scratch[:0], srv, serial, enc)
			u := refMakeUpdate(ref, serial, enc)
			if want := refMarshal(u); !bytes.Equal(scratch, want) {
				t.Fatalf("update %d: wire bytes differ\n got %x\nwant %x", serial, scratch, want)
			}
			if tiles != len(u.Tiles) {
				t.Fatalf("update %d: %d tiles, reference %d", serial, tiles, len(u.Tiles))
			}
			sameFB(t, fmt.Sprintf("server after update %d", serial), srv, ref)

			wire := bytes.Clone(scratch)
			for n := in.next() % 3; n > 0; n-- {
				i := int(in.next())<<8 | int(in.next())
				wire[i%len(wire)] ^= in.next()
			}
			v, err := UnmarshalUpdate(wire)
			if n, got := checkUpdate(wire); errText(got) != errText(err) || err != nil && n != 0 || err == nil && n != len(v.Tiles) {
				t.Fatalf("update %d: framing check gave %d tiles, error %q; parse error %q", serial, n, errText(got), errText(err))
			}
			if err != nil {
				synced = false
				return
			}
			mutated := false
			for n := in.next() % 4; n > 0 && len(v.Tiles) > 0; n-- {
				mutated = true
				tu := &v.Tiles[int(in.next())%len(v.Tiles)]
				switch in.next() % 6 {
				case 0:
					if len(tu.Data) > 0 {
						tu.Data[int(in.next())%len(tu.Data)] = in.next()
					}
				case 1:
					tu.Data = tu.Data[:len(tu.Data)-min(len(tu.Data), 1+int(in.next()%3))]
				case 2:
					tu.Data = append(tu.Data[:len(tu.Data):len(tu.Data)], in.next(), in.next())
				case 3:
					tu.Enc ^= Encoding(1 + in.next()%2)
				case 4:
					tu.Rect.X, tu.Rect.Y = in.coord(), in.coord()
				case 5:
					tu.Rect.W, tu.Rect.H = in.coord()%24, in.coord()%24
				}
			}
			if mutated {
				// Coordinates travel as uint16, so the decoder takes the
				// update as the wire carries it.
				wire = refMarshal(v)
				if v, err = UnmarshalUpdate(wire); err != nil {
					t.Fatalf("update %d: re-marshalled tiles do not parse: %v", serial, err)
				}
				if n, got := checkUpdate(wire); got != nil || n != len(v.Tiles) {
					t.Fatalf("update %d: framing check of re-marshalled tiles gave %d tiles, error %v; want %d", serial, n, got, len(v.Tiles))
				}
			}
			synced = synced && bytes.Equal(wire, scratch)
			err = refApply(refCli, v)
			if synced && (err != nil || !bytes.Equal(refCli.pix, ref.pix)) {
				t.Fatalf("update %d: decoding the clean wire gave error %v or pixels that differ from the server's", serial, err)
			}
		}

		for step := 0; len(in) > 0 && step < 64; step++ {
			switch in.next() % 6 {
			case 0:
				x, y, fw, fh, v := in.coord(), in.coord(), in.coord(), in.coord(), in.next()
				srv.Fill(x, y, fw, fh, v)
				refFill(ref, x, y, fw, fh, v)
			case 1:
				x, y, v := in.coord(), in.coord(), in.next()
				srv.Set(x, y, v)
				ref.Set(x, y, v)
			case 2:
				x, y, side, color := in.coord(), in.coord(), int(in.next()%48), in.next()
				d := Animator{fb: srv, x: x, y: y, side: side, color: color}
				d.drawTextured()
				refDrawTextured(ref, x, y, side, color)
			case 3:
				anim.Step()
				refStep(&refAnim, ref)
				if anim.x != refAnim.x || anim.y != refAnim.y || anim.color != refAnim.color || anim.Steps != refAnim.Steps {
					t.Fatalf("animator state %+v, reference %+v", anim, refAnim)
				}
			case 4:
				srv.MarkAllDirty()
				ref.MarkAllDirty()
			case 5:
				update()
			}
			sameFB(t, fmt.Sprintf("server after step %d", step), srv, ref)
		}
		update()
	})
}
