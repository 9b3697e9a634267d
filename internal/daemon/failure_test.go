package daemon_test

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"aroma/internal/daemon"
	"aroma/pkg/aroma"
	"aroma/pkg/aroma/client"
	"aroma/pkg/aroma/scenario"
)

// panicbomb is a test-only scenario whose world panics out of a kernel
// event at t=10s — the daemon-side stand-in for a model bug corrupting
// a hosted world mid-run.
func init() {
	scenario.Register("panicbomb", "test scenario that panics mid-run",
		func(cfg scenario.Config) (*scenario.Built, error) {
			w := aroma.NewWorld(aroma.WithName("bomb"), aroma.WithSeed(cfg.SeedOr(1)))
			w.AddDevice("dev", aroma.Pt(1, 1), aroma.WithSpec(aroma.AdapterSpec()))
			w.Schedule(10*aroma.Second, "bomb.detonate", func() {
				panic("boom: injected model failure")
			})
			return &scenario.Built{World: w, Horizon: cfg.HorizonOr(30 * aroma.Second)}, nil
		})
}

func newDaemonWith(t *testing.T, opts ...daemon.Option) *client.Client {
	t.Helper()
	srv := daemon.New(opts...)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		srv.Close()
		ts.Close()
	})
	c := client.New(ts.URL)
	c.SetHTTPClient(ts.Client())
	return c
}

// waitForWorld polls a world's info until cond is satisfied or the
// deadline passes (the supervisor resurrects asynchronously).
func waitForWorld(t *testing.T, c *client.Client, id string, cond func(client.WorldInfo) bool) client.WorldInfo {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		wi, err := c.World(context.Background(), id)
		if err == nil && cond(*wi) {
			return *wi
		}
		if time.Now().After(deadline) {
			t.Fatalf("world %q never reached the wanted state; last: %+v (err=%v)", id, wi, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// A panic inside one hosted world's command loop flips that world into
// a terminal failed state — failure and stack inspectable, commands
// refused — while sibling worlds keep stepping and the daemon's HTTP
// surface stays fully alive.
func TestWorldPanicIsolation(t *testing.T) {
	c := newDaemonWith(t) // no supervisor: failure is terminal
	ctx := context.Background()

	if _, err := c.CreateWorld(ctx, client.CreateWorldRequest{ID: "bomb", Scenario: "panicbomb"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateWorld(ctx, client.CreateWorldRequest{ID: "calm", Scenario: "lab"}); err != nil {
		t.Fatal(err)
	}

	// Driving past t=10s detonates the scheduled panic; the command
	// must come back as an error, not a daemon crash.
	if _, err := c.RunToHorizon(ctx, "bomb"); err == nil {
		t.Fatal("run across the panic succeeded")
	} else if !strings.Contains(err.Error(), "world failed") {
		t.Fatalf("run across the panic: %v, want a world-failed error", err)
	}

	wi := waitForWorld(t, c, "bomb", func(wi client.WorldInfo) bool { return wi.State == "failed" })
	if !strings.Contains(wi.Failure, "boom: injected model failure") {
		t.Errorf("failure lost the panic message: %q", wi.Failure)
	}
	if !strings.Contains(wi.Failure, "goroutine") {
		t.Errorf("failure carries no stack trace: %q", wi.Failure)
	}
	if wi.Scenario != "panicbomb" || wi.Seed != 1 {
		t.Errorf("failed info lost its identity: %+v", wi)
	}

	// Further commands against the failed world are refused cleanly.
	if _, err := c.Result(ctx, "bomb"); err == nil || !strings.Contains(err.Error(), "world failed") {
		t.Errorf("result on failed world: %v, want world-failed", err)
	}

	// The sibling is untouched and still advances.
	calm, err := c.Run(ctx, "calm", client.RunRequest{Events: 5})
	if err != nil {
		t.Fatal(err)
	}
	if calm.Steps == 0 || calm.State != "ok" {
		t.Errorf("sibling world did not keep stepping: %+v", calm)
	}

	// Listings include the failed world, and deleting it works.
	worlds, err := c.Worlds(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(worlds) != 2 {
		t.Fatalf("listing = %d worlds, want 2", len(worlds))
	}
	if err := c.DeleteWorld(ctx, "bomb"); err != nil {
		t.Fatal(err)
	}
}

// The supervisor resurrects a failed world from its most recent
// snapshot under the same ID, bumping the provenance restart lineage,
// and stops once the restart budget is exhausted.
func TestSupervisorResurrectsFromSnapshot(t *testing.T) {
	c := newDaemonWith(t, daemon.WithSupervisor(2))
	ctx := context.Background()

	if _, err := c.CreateWorld(ctx, client.CreateWorldRequest{ID: "phoenix", Scenario: "panicbomb"}); err != nil {
		t.Fatal(err)
	}
	// Advance to t=5s — before the bomb — and snapshot the healthy
	// state as the resurrection point.
	if _, err := c.RunFor(ctx, "phoenix", 5*aroma.Second); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot(ctx, "phoenix", "phoenix-5s")
	if err != nil {
		t.Fatal(err)
	}

	detonate := func(wantRestarts int) client.WorldInfo {
		t.Helper()
		if _, err := c.RunToHorizon(ctx, "phoenix"); err == nil {
			t.Fatal("run across the panic succeeded")
		}
		return waitForWorld(t, c, "phoenix", func(wi client.WorldInfo) bool {
			return wi.State == "ok" && wi.Restarts == wantRestarts
		})
	}

	wi := detonate(1)
	if wi.Now != 5*aroma.Second {
		t.Errorf("resurrected world at %v, want the snapshot instant 5s", wi.Now)
	}
	if wi.Digest != snap.Digest {
		t.Errorf("resurrected digest %s, want the snapshot's %s", wi.Digest, snap.Digest)
	}

	// It died once; it can die again — second resurrection uses the
	// same snapshot and bumps the lineage.
	wi = detonate(2)
	if wi.Now != 5*aroma.Second {
		t.Errorf("second resurrection at %v, want 5s", wi.Now)
	}

	// Budget of 2 is now spent: the third failure is terminal.
	if _, err := c.RunToHorizon(ctx, "phoenix"); err == nil {
		t.Fatal("run across the panic succeeded")
	}
	wi = waitForWorld(t, c, "phoenix", func(wi client.WorldInfo) bool { return wi.State == "failed" })
	if wi.Restarts != 2 {
		t.Errorf("terminal world records %d restarts, want 2", wi.Restarts)
	}
}

// A world that was never snapshotted stays failed even under a
// supervisor — there is nothing to resurrect from.
func TestSupervisorNeedsSnapshot(t *testing.T) {
	c := newDaemonWith(t, daemon.WithSupervisor(3))
	ctx := context.Background()
	if _, err := c.CreateWorld(ctx, client.CreateWorldRequest{ID: "gone", Scenario: "panicbomb"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunToHorizon(ctx, "gone"); err == nil {
		t.Fatal("run across the panic succeeded")
	}
	waitForWorld(t, c, "gone", func(wi client.WorldInfo) bool { return wi.State == "failed" })
	// Hold briefly: the supervisor must not flip it back to ok.
	time.Sleep(100 * time.Millisecond)
	got, err := c.World(ctx, "gone")
	if err != nil {
		t.Fatal(err)
	}
	if got.State != "failed" || got.Restarts != 0 {
		t.Errorf("unsnapshotted world was resurrected: %+v", got)
	}
}

// Fault plans ride the create-world API: the armed plan is echoed in
// the world's info and changes the digest trajectory against a clean
// twin at the same seed.
func TestCreateWorldWithFaults(t *testing.T) {
	c := newDaemonWith(t)
	ctx := context.Background()
	plan := "jam:at=5s,for=10s,loss=40"

	if _, err := c.CreateWorld(ctx, client.CreateWorldRequest{
		ID: "stormy", Scenario: "faultstorm", Seed: 7, Faults: plan,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateWorld(ctx, client.CreateWorldRequest{
		ID: "clean", Scenario: "faultstorm", Seed: 7, Faults: "none",
	}); err != nil {
		t.Fatal(err)
	}

	stormy, err := c.Run(ctx, "stormy", client.RunRequest{Until: 20 * aroma.Second})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := c.Run(ctx, "clean", client.RunRequest{Until: 20 * aroma.Second})
	if err != nil {
		t.Fatal(err)
	}
	if stormy.Faults != plan {
		t.Errorf("stormy world reports plan %q, want %q", stormy.Faults, plan)
	}
	if clean.Faults != "" {
		t.Errorf("clean world reports plan %q, want none", clean.Faults)
	}
	if stormy.Digest == clean.Digest {
		t.Errorf("fault plan did not change the digest (%s)", stormy.Digest)
	}

	// A bad plan is a 400 at create time, not a hosted broken world.
	if _, err := c.CreateWorld(ctx, client.CreateWorldRequest{
		Scenario: "faultstorm", Faults: "crash:for=5s",
	}); err == nil {
		t.Error("bad fault plan accepted")
	}
}
