package rfb

import (
	"encoding/binary"
	"fmt"
	"math"

	"aroma/internal/netsim"
	"aroma/internal/sim"
)

// Request opcodes on the RFB port.
const (
	reqIncremental byte = 0
	reqFull        byte = 1
)

// Server exports a framebuffer over the network on netsim.PortRFB: the
// projection side of the Smart Projector (the laptop's VNC server).
type Server struct {
	node   *netsim.Node
	fb     *Framebuffer
	enc    Encoding
	serial uint32

	// scratch holds the update being encoded. It is never handed out:
	// after a Call timeout, fragments of an earlier reply can still sit
	// in the MAC queue, so each reply is an exact-size copy.
	scratch []byte

	// Stats
	UpdatesServed uint64
	BytesServed   uint64
	TilesServed   uint64
}

// NewServer attaches an RFB server for fb to the node. enc is the
// preferred tile encoding.
func NewServer(node *netsim.Node, fb *Framebuffer, enc Encoding) *Server {
	s := &Server{node: node, fb: fb, enc: enc}
	node.HandleRequest(netsim.PortRFB, s.serve)
	return s
}

// Framebuffer returns the served framebuffer (the "screen" applications
// draw on).
func (s *Server) Framebuffer() *Framebuffer { return s.fb }

func (s *Server) serve(src netsim.Addr, req []byte) []byte {
	if len(req) != 1 {
		return make([]byte, updateHeaderLen) // an empty update, serial 0
	}
	if req[0] == reqFull {
		s.fb.MarkAllDirty()
	}
	s.serial++
	var tiles int
	s.scratch, tiles = appendUpdate(s.scratch[:0], s.fb, s.serial, s.enc)
	data := make([]byte, len(s.scratch))
	copy(data, s.scratch)
	s.UpdatesServed++
	s.BytesServed += uint64(len(data))
	s.TilesServed += uint64(tiles)
	return data
}

// Client is the display side (the Aroma adapter driving the projector):
// it pulls updates from a Server and maintains a local framebuffer copy.
type Client struct {
	node   *netsim.Node
	server netsim.Addr
	fb     *Framebuffer

	// Stats
	UpdatesApplied uint64
	TilesApplied   uint64
	BytesReceived  uint64
	Errors         uint64
}

// NewClient creates a client with a local w×h framebuffer, pulling from
// the server at the given address.
func NewClient(node *netsim.Node, server netsim.Addr, w, h int) (*Client, error) {
	fb, err := NewFramebuffer(w, h)
	if err != nil {
		return nil, err
	}
	return &Client{node: node, server: server, fb: fb}, nil
}

// requests holds the one-byte request of each opcode. Call payloads are
// never written, by the network or by the server, so every poll shares
// them.
var requests = [...][]byte{reqIncremental: {reqIncremental}, reqFull: {reqFull}}

// RequestUpdate pulls one update and applies it straight from the reply.
// If full, the server resends every tile. done (optional) receives the
// number of tiles applied, or an error. A reply that is malformed as a
// whole changes nothing; a tile that fails to decode keeps the tiles
// before it, as written.
func (c *Client) RequestUpdate(full bool, timeout sim.Time, done func(tiles int, err error)) {
	op := reqIncremental
	if full {
		op = reqFull
	}
	c.node.Call(c.server, netsim.PortRFB, requests[op], timeout, func(resp []byte, err error) {
		tiles := 0
		if err == nil {
			tiles, err = applyUpdate(c.fb, resp)
		}
		if err != nil {
			c.Errors++
		} else {
			c.UpdatesApplied++
			c.TilesApplied += uint64(tiles)
			c.BytesReceived += uint64(len(resp))
		}
		if done != nil {
			done(tiles, err)
		}
	})
}

// IdlePollDelay is how long Stream waits before re-polling after an
// empty update. Real VNC servers defer the reply until the framebuffer
// changes; the delayed re-poll approximates that without burning the
// wireless medium on empty round trips.
const IdlePollDelay = 50 * sim.Millisecond

// Stream continuously pulls updates, back-to-back while content flows
// (the VNC flow-control model) and at IdlePollDelay intervals while the
// screen is static. It returns a stop function. onFrame (optional)
// observes the tile count of each applied update, including empty ones.
func (c *Client) Stream(timeout sim.Time, onFrame func(tiles int)) (stop func()) {
	stopped := false
	k := c.node.Kernel()
	var loop func()
	loop = func() {
		if stopped {
			return
		}
		c.RequestUpdate(false, timeout, func(tiles int, err error) {
			if stopped {
				return
			}
			if err == nil && onFrame != nil {
				onFrame(tiles)
			}
			if err == nil && tiles == 0 {
				k.Schedule(IdlePollDelay, "rfb.idlePoll", loop)
				return
			}
			// Content flowed (or the request failed): re-poll at once.
			loop()
		})
	}
	loop()
	return func() { stopped = true }
}

// Animator mutates a framebuffer to simulate screen activity: a moving
// filled square ("the presentation's animation") whose size sets the
// fraction of the screen that changes per frame — the intensity knob of
// experiment C1.
type Animator struct {
	fb     *Framebuffer
	side   int
	x, y   int
	dx, dy int
	color  uint8
	cols   []uint8 // scratch: the textured draw's column pattern
	Steps  uint64

	// Textured draws a per-pixel pattern instead of a solid square,
	// modelling photographic/video content that run-length encoding
	// cannot compress (the honest arm for the bandwidth experiment).
	Textured bool
}

// NewAnimator creates an animator whose moving square covers roughly
// intensity (0..1] of the framebuffer area.
func NewAnimator(fb *Framebuffer, intensity float64) (*Animator, error) {
	if !(intensity > 0 && intensity <= 1) { // false for NaN too
		return nil, fmt.Errorf("rfb: intensity %v out of (0,1]", intensity)
	}
	area := float64(fb.W*fb.H) * intensity
	side := int(math.Sqrt(area))
	if side < 1 {
		side = 1
	}
	if side > fb.W {
		side = fb.W
	}
	if side > fb.H {
		side = fb.H
	}
	return &Animator{fb: fb, side: side, dx: 7, dy: 3, color: 1}, nil
}

// Step advances the animation one frame: erases the old square, draws the
// new one, bouncing off the edges.
func (a *Animator) Step() {
	a.fb.Fill(a.x, a.y, a.side, a.side, 0)
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
		a.drawTextured()
	} else {
		a.fb.Fill(a.x, a.y, a.side, a.side, a.color)
	}
	a.Steps++
}

// drawTextured paints the square at its current position with the
// textured pattern color ^ uint8((x+i)·7 + yy·13), tile by tile. The
// column part is computed once into the animator's scratch; each row of
// a tile's part adds the row part to it eight pixels at a time.
func (a *Animator) drawTextured() {
	if len(a.cols) < a.side {
		a.cols = make([]uint8, a.side)
	}
	cols := a.cols[:a.side]
	for i := range cols {
		cols[i] = uint8((a.x + i) * 7)
	}
	c8 := uint64(a.color) * lanes
	var blk [TileSize * TileSize]uint8
	a.fb.eachTile(a.x, a.y, a.x+a.side, a.y+a.side, func(x0, y0, x1, y1 int) {
		w := x1 - x0
		c := cols[x0-a.x:][:w]
		for y := y0; y < y1; y++ {
			row := blk[(y-y0)*w:][:w]
			d := uint8(y * 13)
			d8 := uint64(d) * lanes
			i := 0
			for ; i+8 <= w; i += 8 {
				binary.LittleEndian.PutUint64(row[i:], addLanes(binary.LittleEndian.Uint64(c[i:]), d8)^c8)
			}
			for ; i < w; i++ {
				row[i] = a.color ^ (c[i] + d)
			}
		}
		a.fb.putTile(x0, y0, x1, y1, blk[:], w)
	})
}

// addLanes adds a and b as eight independent bytes, each modulo 256:
// the low seven bits of every lane add without reaching the next lane,
// and the high bits are added carry-less.
func addLanes(a, b uint64) uint64 {
	return ((a &^ highs) + (b &^ highs)) ^ ((a ^ b) & highs)
}
