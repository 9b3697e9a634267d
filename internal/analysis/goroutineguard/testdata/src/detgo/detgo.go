// Package detgo stands in for a deterministic package: every go
// statement is flagged, whatever it captures — except inside an
// audited spawn site, which is allowed even here (a worker pool living
// inside a deterministic package).
package detgo

func compute(xs []int, out chan<- int) {
	go func() { // want `go statement in deterministic package`
		s := 0
		for _, x := range xs {
			s += x
		}
		out <- s
	}()
}

// runner is a worker pool whose workers block until started or quit.
type runner struct {
	start []chan struct{}
	quit  chan struct{}
}

func (r *runner) loop(w int) {
	for {
		select {
		case <-r.quit:
			return
		case <-r.start[w-1]:
		}
	}
}

// startWorkers is the audited spawn site named in the test's config:
// clean even though it spawns inside a deterministic package.
func (r *runner) startWorkers() {
	for i := range r.start {
		go r.loop(i + 1)
	}
}

// startRogue is the same spawn pattern without an audit entry: still
// flagged — the allowlist names functions, not packages.
func (r *runner) startRogue() {
	for i := range r.start {
		go r.loop(i + 1) // want `go statement in deterministic package`
	}
}
