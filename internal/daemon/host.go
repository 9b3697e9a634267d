package daemon

import (
	"bytes"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"aroma/pkg/aroma/scenario"
)

// errWorldClosed is returned by host.do after the world is deleted.
var errWorldClosed = errors.New("world deleted")

// errWorldBusy is returned by host.tryDo when the command loop did not
// accept the command within the wait budget.
var errWorldBusy = errors.New("world busy")

// errWorldFailed is returned by host.do once the world's command loop
// has caught a panic: the world is terminal and no command will touch
// it again. GET /v1/worlds/{id} reports the captured failure.
var errWorldFailed = errors.New("world failed (GET /v1/worlds/{id} for the failure)")

// host owns one hosted world. An Aroma world, like the kernel beneath
// it, is single-threaded; the host preserves that invariant under a
// concurrent HTTP surface by funneling every touch of the world —
// stepping, snapshotting, subscribing, even reading the clock —
// through one command-loop goroutine. HTTP handlers submit closures
// with do and wait; closures execute strictly one at a time, so a
// long run-to-horizon and a concurrent snapshot request serialize
// instead of racing.
//
// The loop is also the daemon's fault isolation boundary: a panic
// inside a command (a scenario bug, a corrupted model invariant) is
// recovered on the loop, captured with its stack, and flips the host
// into a terminal failed state — sibling worlds and the HTTP surface
// never notice. A failed world stops accepting commands (its state may
// be mid-event, so nothing must read it); it can still be listed,
// inspected for the failure, deleted, or — when the daemon runs a
// supervisor — resurrected from its most recent snapshot.
type host struct {
	id   string
	scen string // scenario name, for listings

	// seed and restarts are captured at hosting time (the world is not
	// yet shared, so reading it is safe) for failed-world listings,
	// which cannot touch the world anymore.
	seed     int64
	restarts int

	// built (the world plus its horizon and finish hook) and out (the
	// world's captured narration; nil for restored worlds, whose replay
	// discards it) are owned by the loop goroutine: only code passed
	// through do may touch them. out is the same buffer the scenario's
	// closures write to — scheduled narration keeps landing in it.
	built *scenario.Built
	out   *bytes.Buffer

	// lastSnap names the most recent snapshot taken from this world —
	// the supervisor's resurrection point. Guarded by the Server's mu
	// (written by handleSnapshot, read by the supervisor), not by the
	// command loop.
	lastSnap string

	// failure is the captured panic (message + stack). It is written
	// exactly once, before failedC closes; readers must observe failedC
	// (isFailed) first.
	failure  string
	failedC  chan struct{}
	failOnce sync.Once
	// onFail, when non-nil, is the supervisor hook, invoked once on a
	// detached goroutine after the host turns failed.
	onFail func(*host)

	cmds chan func()
	quit chan struct{}
	once sync.Once
}

func newHost(id, scen string, b *scenario.Built, out *bytes.Buffer, onFail func(*host)) *host {
	h := &host{
		id:      id,
		scen:    scen,
		seed:    b.World.Seed(),
		built:   b,
		out:     out,
		onFail:  onFail,
		failedC: make(chan struct{}),
		cmds:    make(chan func()),
		quit:    make(chan struct{}),
	}
	if prov, ok := b.World.Provenance(); ok {
		h.restarts = prov.Restarts
	}
	go h.loop()
	return h
}

// loop is the world's single thread.
func (h *host) loop() {
	for {
		select {
		case fn := <-h.cmds:
			fn()
		case <-h.quit:
			return
		}
	}
}

// guard executes one command closure inside the loop's panic boundary.
// A panic marks the host failed (capturing the stack) instead of
// unwinding the loop goroutine and taking the daemon down; commands
// arriving after a failure are skipped entirely, since the world may
// have been left mid-event.
func (h *host) guard(fn func()) {
	if h.isFailed() {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			h.fail(fmt.Sprintf("panic: %v\n\n%s", r, debug.Stack()))
		}
	}()
	fn()
}

// fail flips the host into its terminal failed state (idempotent) and
// fires the supervisor hook.
func (h *host) fail(msg string) {
	h.failOnce.Do(func() {
		h.failure = msg
		close(h.failedC)
		if h.onFail != nil {
			// Detached: the hook restores a snapshot and swaps hosts on
			// the server, which must not run on this world's loop.
			//aroma:goroutine supervisor hook touches only the server's locked maps and a freshly restored world, never this host's world
			go h.onFail(h)
		}
	})
}

// isFailed reports whether the command loop has caught a panic.
func (h *host) isFailed() bool {
	select {
	case <-h.failedC:
		return true
	default:
		return false
	}
}

// do runs fn on the world's loop and waits for it to finish. It fails
// once the host is closed or failed (and never runs fn then); it also
// fails — after the fact — when fn itself panicked, with the failure
// captured on the host.
func (h *host) do(fn func()) error {
	if h.isFailed() {
		return errWorldFailed
	}
	done := make(chan struct{})
	select {
	case h.cmds <- func() { defer close(done); h.guard(fn) }:
	case <-h.quit:
		return errWorldClosed
	case <-h.failedC:
		return errWorldFailed
	}
	select {
	case <-done:
	case <-h.quit:
		// The loop may already have picked fn up; wait for it rather
		// than returning while the closure still runs.
		<-done
	}
	// Commands serialize, so a failure observed here was raised by fn
	// itself or by the command ahead of it (which skipped fn); either
	// way the caller must not trust any result it extracted.
	if h.isFailed() {
		return errWorldFailed
	}
	return nil
}

// tryDo runs fn on the world's loop like do, but gives up when the
// loop does not accept the command within wait — a metrics scrape must
// skip a world deep in a long run rather than stall behind it. Once
// the loop accepts the command, fn runs to completion before tryDo
// returns.
func (h *host) tryDo(fn func(), wait time.Duration) error {
	if h.isFailed() {
		return errWorldFailed
	}
	done := make(chan struct{})
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case h.cmds <- func() { defer close(done); h.guard(fn) }:
	case <-h.quit:
		return errWorldClosed
	case <-h.failedC:
		return errWorldFailed
	case <-timer.C:
		return errWorldBusy
	}
	<-done
	if h.isFailed() {
		return errWorldFailed
	}
	return nil
}

// close shuts the loop down. Idempotent. A command in flight finishes;
// queued callers get errWorldClosed.
func (h *host) close() {
	h.once.Do(func() { close(h.quit) })
}
