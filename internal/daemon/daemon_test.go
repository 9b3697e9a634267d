package daemon_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"aroma/internal/daemon"
	"aroma/internal/sim"
	"aroma/pkg/aroma/checkpoint"
	"aroma/pkg/aroma/client"
	_ "aroma/pkg/aroma/scenarios"
)

// newDaemon starts an in-process daemon and returns a client for it.
func newDaemon(t *testing.T) *client.Client {
	t.Helper()
	srv := daemon.New()
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		srv.Close()
		ts.Close()
	})
	c := client.New(ts.URL)
	c.SetHTTPClient(ts.Client())
	return c
}

func TestScenarioListing(t *testing.T) {
	c := newDaemon(t)
	infos, err := c.Scenarios(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) == 0 {
		t.Fatal("no scenarios listed")
	}
	for _, si := range infos {
		if !si.Buildable {
			t.Errorf("scenario %q not buildable — it cannot be hosted", si.Name)
		}
	}
}

// Two worlds hosted at once step independently: advancing one leaves
// the other's clock and digest untouched, and each matches an
// in-process run of the same scenario driven the same way.
func TestConcurrentWorldsIndependentStepping(t *testing.T) {
	c := newDaemon(t)
	ctx := context.Background()

	w1, err := c.CreateWorld(ctx, client.CreateWorldRequest{
		ID: "a", Scenario: "densitysweep", Seed: 7,
		Params: map[string]string{"radios": "20"},
	})
	if err != nil {
		t.Fatal(err)
	}
	w2, err := c.CreateWorld(ctx, client.CreateWorldRequest{ID: "b", Scenario: "lab"})
	if err != nil {
		t.Fatal(err)
	}
	if w1.Now != 0 || w2.Now != 0 {
		t.Fatalf("fresh worlds not at t=0: %v, %v", w1.Now, w2.Now)
	}

	// Drive only world a; world b must not move.
	w1, err = c.RunFor(ctx, "a", w1.Horizon/2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.World(ctx, "b")
	if err != nil {
		t.Fatal(err)
	}
	if b.Now != 0 || b.Steps != 0 {
		t.Errorf("world b moved while only a was driven: now=%v steps=%d", b.Now, b.Steps)
	}
	if w1.Now != w1.Horizon/2 {
		t.Errorf("world a at %v, want %v", w1.Now, w1.Horizon/2)
	}

	// Single-event stepping works and is observable.
	b2, err := c.Step(ctx, "b", 1)
	if err != nil {
		t.Fatal(err)
	}
	if b2.Steps != 1 {
		t.Errorf("after one step, steps=%d", b2.Steps)
	}

	// Both driven to horizon concurrently; final digests match fresh
	// in-process runs (the daemon adds nothing to the trajectory).
	var wg sync.WaitGroup
	finals := make(map[string]*client.WorldInfo)
	var mu sync.Mutex
	for _, id := range []string{"a", "b"} {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			wi, err := c.RunToHorizon(ctx, id)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			finals[id] = wi
			mu.Unlock()
		}(id)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// In-process references.
	refA := buildAndRun(t, "densitysweep", 7, map[string]string{"radios": "20"})
	refB := buildAndRun(t, "lab", 0, nil)
	if finals["a"].Digest != refA {
		t.Errorf("world a digest %s, in-process run %s", finals["a"].Digest, refA)
	}
	if finals["b"].Digest != refB {
		t.Errorf("world b digest %s, in-process run %s", finals["b"].Digest, refB)
	}

	// Results carry metrics; output carries narration.
	res, err := c.Result(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest != finals["a"].Digest || len(res.Metrics) == 0 {
		t.Errorf("result = %+v", res)
	}

	if err := c.DeleteWorld(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.World(ctx, "a"); err == nil {
		t.Error("deleted world still resolves")
	}
	worlds, err := c.Worlds(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(worlds) != 1 || worlds[0].ID != "b" {
		t.Errorf("worlds after delete: %+v", worlds)
	}
}

// buildAndRun runs a scenario in-process via the daemon-independent
// path and returns the final digest.
func buildAndRun(t *testing.T, name string, seed int64, params map[string]string) string {
	t.Helper()
	c := newDaemon(t)
	wi, err := c.CreateWorld(context.Background(), client.CreateWorldRequest{
		Scenario: name, Seed: seed, Params: params,
	})
	if err != nil {
		t.Fatal(err)
	}
	wi, err = c.RunToHorizon(context.Background(), wi.ID)
	if err != nil {
		t.Fatal(err)
	}
	return wi.Digest
}

// The daemon's snapshot store round-trips through HTTP: a snapshot
// taken over the API, forked over the API, reaches the same digest as
// the downloaded snapshot forked in-process with the same seed.
func TestSnapshotForkMatchesInProcess(t *testing.T) {
	c := newDaemon(t)
	ctx := context.Background()

	wi, err := c.CreateWorld(ctx, client.CreateWorldRequest{
		ID: "base", Scenario: "densitysweep", Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunFor(ctx, "base", wi.Horizon/2); err != nil {
		t.Fatal(err)
	}
	si, err := c.Snapshot(ctx, "base", "half")
	if err != nil {
		t.Fatal(err)
	}
	if si.Scenario != "densitysweep" || si.Bytes == 0 {
		t.Fatalf("snapshot info = %+v", si)
	}

	// HTTP fork, driven to horizon by the daemon.
	fw, err := c.Fork(ctx, "half", "fork", 101)
	if err != nil {
		t.Fatal(err)
	}
	if fw.Now != si.Now || fw.Forks != 1 {
		t.Errorf("fork starts at %v with %d forks, want %v and 1", fw.Now, fw.Forks, si.Now)
	}
	fw, err = c.RunToHorizon(ctx, "fork")
	if err != nil {
		t.Fatal(err)
	}

	// The same snapshot bytes forked in-process must land on the same
	// digest — HTTP hosting adds nothing to the trajectory.
	data, err := c.SnapshotData(ctx, "half")
	if err != nil {
		t.Fatal(err)
	}
	local, err := checkpoint.ForkBuilt(data, 101)
	if err != nil {
		t.Fatal(err)
	}
	local.World.RunUntil(local.Horizon)
	if got := local.World.Digest(); got != fw.Digest {
		t.Errorf("in-process fork digest %s, daemon fork %s", got, fw.Digest)
	}

	// An HTTP restore continues the original trajectory.
	rw, err := c.Restore(ctx, "half", "resumed")
	if err != nil {
		t.Fatal(err)
	}
	rw, err = c.RunToHorizon(ctx, "resumed")
	if err != nil {
		t.Fatal(err)
	}
	base, err := c.RunToHorizon(ctx, "base")
	if err != nil {
		t.Fatal(err)
	}
	if rw.Digest != base.Digest {
		t.Errorf("restored digest %s, original %s", rw.Digest, base.Digest)
	}

	snaps, err := c.Snapshots(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || snaps[0].Name != "half" {
		t.Errorf("snapshots = %+v", snaps)
	}
	if err := c.DeleteSnapshot(ctx, "half"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SnapshotData(ctx, "half"); err == nil {
		t.Error("deleted snapshot still downloads")
	}
}

// Two worlds stream their traces over SSE at once; each stream sees
// only its own world's events, live, while the worlds run.
func TestSSEStreamsPerWorld(t *testing.T) {
	c := newDaemon(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for _, id := range []string{"x", "y"} {
		if _, err := c.CreateWorld(ctx, client.CreateWorldRequest{ID: id, Scenario: "lab"}); err != nil {
			t.Fatal(err)
		}
	}

	type streamState struct {
		mu     sync.Mutex
		events []client.Event
		err    error
		done   chan struct{}
	}
	streams := map[string]*streamState{}
	for _, id := range []string{"x", "y"} {
		st := &streamState{done: make(chan struct{})}
		streams[id] = st
		go func(id string) {
			defer close(st.done)
			st.err = c.StreamEvents(ctx, id, "debug", func(ev client.Event) {
				st.mu.Lock()
				st.events = append(st.events, ev)
				st.mu.Unlock()
			})
		}(id)
	}

	// The subscription attaches asynchronously (the SSE handler races
	// the first run command), so drive each world in short chunks until
	// its stream delivers — a chunk run after the subscription is live
	// is guaranteed to be seen.
	var wg sync.WaitGroup
	for _, id := range []string{"x", "y"} {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			st := streams[id]
			deadline := time.Now().Add(20 * time.Second)
			for chunk := 0; chunk < 60; chunk++ {
				if _, err := c.RunFor(ctx, id, 5*sim.Second); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(10 * time.Millisecond) // let the writer drain
				st.mu.Lock()
				n := len(st.events)
				st.mu.Unlock()
				if n > 0 {
					return
				}
				if time.Now().After(deadline) {
					break
				}
			}
			t.Errorf("stream %s delivered no events", id)
		}(id)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for id, st := range streams {
		st.mu.Lock()
		for _, ev := range st.events {
			if ev.At <= 0 || ev.Severity == "" || ev.Layer == "" {
				t.Errorf("stream %s: malformed event %+v", id, ev)
				break
			}
		}
		st.mu.Unlock()
	}

	// Deleting a world ends its stream cleanly.
	if err := c.DeleteWorld(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-streams["x"].done:
		if streams["x"].err != nil {
			t.Errorf("stream x ended with error: %v", streams["x"].err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream x did not end after world deletion")
	}

	cancel()
	select {
	case <-streams["y"].done:
		if streams["y"].err != nil {
			t.Errorf("stream y ended with error: %v", streams["y"].err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream y did not end after context cancel")
	}
}

// Error surfaces: unknown scenarios, duplicate IDs, missing worlds and
// snapshots all come back as typed API errors, not hangs or panics.
func TestAPIErrors(t *testing.T) {
	c := newDaemon(t)
	ctx := context.Background()

	if _, err := c.CreateWorld(ctx, client.CreateWorldRequest{Scenario: "no-such"}); err == nil {
		t.Error("unknown scenario accepted")
	}
	if _, err := c.CreateWorld(ctx, client.CreateWorldRequest{ID: "dup", Scenario: "quickstart"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateWorld(ctx, client.CreateWorldRequest{ID: "dup", Scenario: "quickstart"}); err == nil {
		t.Error("duplicate world id accepted")
	}
	if _, err := c.World(ctx, "missing"); err == nil {
		t.Error("missing world resolved")
	}
	if _, err := c.Snapshot(ctx, "missing", ""); err == nil {
		t.Error("snapshot of missing world succeeded")
	}
	if _, err := c.Restore(ctx, "missing", ""); err == nil {
		t.Error("restore of missing snapshot succeeded")
	}
	if err := c.DeleteWorld(ctx, "missing"); err == nil {
		t.Error("delete of missing world succeeded")
	}
}

// A request body over the 1 MiB cap is refused with 413 and the typed
// body_too_large error, not a generic 400, and hosts no world. The body
// is valid JSON padded past the cap, so only its size is at fault.
func TestOversizedBodyIs413(t *testing.T) {
	srv := daemon.New()
	ts := httptest.NewServer(srv)
	defer func() {
		srv.Close()
		ts.Close()
	}()
	body := `{"scenario":"quickstart","params":{"pad":"` + strings.Repeat("x", 1<<20) + `"}}`
	resp, err := ts.Client().Post(ts.URL+"/v1/worlds", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	var eb client.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("error body: %v", err)
	}
	if eb.Code != client.CodeBodyTooLarge || eb.Error == "" {
		t.Errorf("error body = %+v, want code %q with a message", eb, client.CodeBodyTooLarge)
	}
	c := client.New(ts.URL)
	c.SetHTTPClient(ts.Client())
	worlds, err := c.Worlds(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(worlds) != 0 {
		t.Errorf("oversized create hosted %d worlds", len(worlds))
	}
}
