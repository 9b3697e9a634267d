package netsim

// Test-only helpers: nothing outside the tests calls these, so they
// live here rather than in the package's API.

// PortDynamic is the first port free for applications.
const PortDynamic Port = 1024

// Name returns the node's human-readable name.
func (nd *Node) Name() string { return nd.name }

// Member reports whether the node belongs to group g.
func (nd *Node) Member(g Group) bool { return nd.groups[g] }

// PendingCalls returns the number of calls awaiting responses.
func (nd *Node) PendingCalls() int { return len(nd.pending) }
