package rfb

import (
	"aroma/internal/netsim"
	"aroma/internal/sim"
)

// Test-only helpers: nothing outside the tests calls these, so they
// live here rather than in the package's API.

// Framebuffer returns the client's local copy (what the projector shows).
func (c *Client) Framebuffer() *Framebuffer { return c.fb }

// RequestUpdate pulls one update, as one poll of Stream does, and
// applies it. If full, the server resends every tile. done (optional)
// receives the number of tiles applied, or an error.
func (c *Client) RequestUpdate(full bool, timeout sim.Time, done func(tiles int, err error)) {
	op := reqIncremental
	if full {
		op = reqFull
	}
	c.node.Call(c.server, netsim.PortRFB, requests[op], timeout, func(resp []byte, err error) {
		tiles, err := c.apply(resp, err)
		if done != nil {
			done(tiles, err)
		}
	})
}
