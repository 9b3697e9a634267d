package daemon_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"aroma/internal/daemon"
	"aroma/internal/sim"
	"aroma/pkg/aroma/client"
	_ "aroma/pkg/aroma/scenarios"
)

// The /metrics exposition carries the server's host-plane instruments
// plus every hosted world's registry under a world label, with the
// known kernel, radio, and MAC instrument names — the same names the
// CI smoke test greps for.
func TestMetricsExposition(t *testing.T) {
	c := newDaemon(t)
	ctx := context.Background()

	if _, err := c.CreateWorld(ctx, client.CreateWorldRequest{ID: "m1", Scenario: "lab"}); err != nil {
		t.Fatal(err)
	}

	if _, err := c.RunFor(ctx, "m1", 10*sim.Second); err != nil {
		t.Fatal(err)
	}
	text, err := c.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE aroma_kernel_steps_total counter",
		`aroma_kernel_steps_total{world="m1"}`,
		`aroma_kernel_events_scheduled_total{world="m1"}`,
		`aroma_radio_frames_sent_total{world="m1"}`,
		`aroma_radio_gain_cache_hits_total{world="m1"}`,
		`aroma_mac_frames_sent_total{world="m1"}`,
		`aroma_trace_events_total{severity="debug",world="m1"}`,
		"aroma_host_sse_dropped_total",
		"aroma_host_worlds 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The JSON endpoint returns the same registry as a snapshot with
	// sim-time series: 10 virtual seconds at the 100ms default period
	// is 100 samples (decimation keeps them all).
	snap, err := c.WorldMetrics(ctx, "m1")
	if err != nil {
		t.Fatal(err)
	}
	if snap.At != int64(10*sim.Second) {
		t.Errorf("snapshot At = %d, want %d", snap.At, int64(10*sim.Second))
	}
	var found bool
	for _, in := range snap.Instruments {
		if in.Name == "kernel.steps_total" {
			found = true
			if in.Value <= 0 {
				t.Errorf("kernel.steps_total = %v, want > 0", in.Value)
			}
			if len(in.Series) == 0 {
				t.Error("kernel.steps_total has no sim-time series")
			} else if last := in.Series[len(in.Series)-1]; last.T != int64(10*sim.Second) {
				t.Errorf("last sample at %d, want %d", last.T, int64(10*sim.Second))
			}
		}
	}
	if !found {
		t.Error("snapshot has no kernel.steps_total instrument")
	}

	if _, err := c.WorldMetrics(ctx, "missing"); err == nil {
		t.Error("metrics of missing world succeeded")
	}
}

// TestWorldMetricsWhileDecimating GETs a world's metrics JSON while
// runs carry its series across their first decimation (sample 2049,
// past 204.8 s at the 100 ms period). The handler encodes each snapshot
// off the world loop, so under -race this proves a snapshot's series
// are never rewritten by the decimation that follows it. Every fetched
// series must also be ascending and end at the snapshot instant.
func TestWorldMetricsWhileDecimating(t *testing.T) {
	c := newDaemon(t)
	ctx := context.Background()
	if _, err := c.CreateWorld(ctx, client.CreateWorldRequest{ID: "dec", Scenario: "lab"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunFor(ctx, "dec", 200*sim.Second); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	var fetched int
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			snap, err := c.WorldMetrics(ctx, "dec")
			if err != nil {
				t.Error(err)
				return
			}
			fetched++
			for _, in := range snap.Instruments {
				s := in.Series
				if len(s) == 0 || s[len(s)-1].T != snap.At {
					t.Errorf("%s: series does not end at the snapshot instant %d", in.Name, snap.At)
					return
				}
				for i := 1; i < len(s); i++ {
					if s[i].T <= s[i-1].T {
						t.Errorf("%s: series not ascending at %d", in.Name, i)
						return
					}
				}
			}
		}
	}()
	for i := 0; i < 10; i++ {
		if _, err := c.RunFor(ctx, "dec", sim.Second); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if fetched == 0 {
		t.Fatal("no snapshot fetched while running")
	}
}

// TestConcurrentMetricsScrapes scrapes /metrics from several clients at
// once while a world runs: the server's own registry is rendered from
// concurrent handlers, so under -race this checks its cached exposition
// is guarded, and every scrape must be complete.
func TestConcurrentMetricsScrapes(t *testing.T) {
	c := newDaemon(t)
	ctx := context.Background()
	if _, err := c.CreateWorld(ctx, client.CreateWorldRequest{ID: "s1", Scenario: "lab"}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				text, err := c.MetricsText(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				for _, want := range []string{"aroma_host_worlds 1", `aroma_kernel_steps_total{world="s1"}`} {
					if !strings.Contains(text, want) {
						t.Errorf("scrape missing %q", want)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 5; i++ {
		if _, err := c.RunFor(ctx, "s1", sim.Second); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

// TestMetricsWorldLabelRoundTrips creates a world whose ID holds a
// double quote and a backslash and checks that the world label of its
// /metrics lines reads back, under the Prometheus text-format escapes,
// as that ID.
func TestMetricsWorldLabelRoundTrips(t *testing.T) {
	c := newDaemon(t)
	ctx := context.Background()
	const id = `q"uo\te`
	if _, err := c.CreateWorld(ctx, client.CreateWorldRequest{ID: id, Scenario: "lab"}); err != nil {
		t.Fatal(err)
	}
	text, err := c.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	const prefix = `aroma_kernel_steps_total{world="`
	var line string
	for _, l := range strings.Split(text, "\n") {
		if strings.HasPrefix(l, prefix) {
			line = l
			break
		}
	}
	if line == "" {
		t.Fatalf("/metrics has no %s line", prefix)
	}
	// Read the quoted value back: \\, \" and \n are the only escapes.
	var got strings.Builder
	rest := line[len(prefix):]
	for i := 0; ; i++ {
		if i >= len(rest) {
			t.Fatalf("unterminated label value in %q", line)
		}
		ch := rest[i]
		if ch == '"' {
			break
		}
		if ch == '\\' && i+1 < len(rest) {
			i++
			switch rest[i] {
			case '\\', '"':
				ch = rest[i]
			case 'n':
				ch = '\n'
			default:
				t.Fatalf("unknown escape \\%c in %q", rest[i], line)
			}
		}
		got.WriteByte(ch)
	}
	if got.String() != id {
		t.Fatalf("world label reads back as %q, want %q (line %q)", got.String(), id, line)
	}
}

// TestMetricsContentLength pins that /metrics states its length and
// that the client reads back exactly the bytes served, whether or not
// the reply states its length.
func TestMetricsContentLength(t *testing.T) {
	srv := daemon.New()
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		srv.Close()
		ts.Close()
	})
	c := client.New(ts.URL)
	c.SetHTTPClient(ts.Client())
	ctx := context.Background()
	for _, id := range []string{"a", "b"} {
		if _, err := c.CreateWorld(ctx, client.CreateWorldRequest{ID: id, Scenario: "lab"}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.RunFor(ctx, id, 5*sim.Second); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.ContentLength != int64(len(body)) || resp.Header.Get("Content-Length") == "" {
		t.Fatalf("Content-Length %d (header %q), body %d bytes",
			resp.ContentLength, resp.Header.Get("Content-Length"), len(body))
	}
	if !strings.Contains(string(body), `world="b"`) {
		t.Fatalf("/metrics has no world b:\n%s", body)
	}
	text, err := c.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if text != string(body) {
		t.Fatalf("client text (%d bytes) differs from the served body (%d bytes)", len(text), len(body))
	}

	// A reply without a stated length (chunked) reads back whole too.
	chunked := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(body[:len(body)/2])
		w.(http.Flusher).Flush()
		w.Write(body[len(body)/2:])
	}))
	t.Cleanup(chunked.Close)
	cc := client.New(chunked.URL)
	cc.SetHTTPClient(chunked.Client())
	if text, err = cc.MetricsText(ctx); err != nil || text != string(body) {
		t.Fatalf("chunked reply: err %v, %d bytes, want the %d served", err, len(text), len(body))
	}
}
