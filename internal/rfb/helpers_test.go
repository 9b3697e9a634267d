package rfb

// Test-only helpers: nothing outside the tests calls these, so they
// live here rather than in the package's API.

// Framebuffer returns the client's local copy (what the projector shows).
func (c *Client) Framebuffer() *Framebuffer { return c.fb }
