package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aroma/internal/daemon"
	"aroma/pkg/aroma/checkpoint"
	"aroma/pkg/aroma/client"
	"aroma/pkg/aroma/scenario"
)

// spanHeader carries the client span's ID to the server-side wrapper, so
// a request's two halves join in the trace.
const spanHeader = "X-Bench-Span"

// routes are the daemon routes a session uses, as the trace names them.
var routes = []string{"create", "run", "info", "snapshot", "fork", "result", "scrape", "delete"}

// serviceFixture is an in-process aromad behind a loopback HTTP server,
// driven by closed-loop clients: each sends its next request only after
// the previous reply, as every aromad caller does.
type serviceFixture struct {
	rc      runCfg
	srv     *daemon.Server
	ts      *httptest.Server
	clients []*client.Client
	conns   []*http.Transport
	tracer  atomic.Pointer[tracer] // the round's tracer, for the server side
}

func setupService(rc runCfg) (fixture, error) {
	f := &serviceFixture{rc: rc, srv: daemon.New()}
	f.tracer.Store(&tracer{})
	f.ts = httptest.NewServer(f)
	for i := 0; i < rc.clients; i++ {
		// One keep-alive connection per client.
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		c := client.New(f.ts.URL)
		c.SetHTTPClient(&http.Client{Transport: spanTransport{tr}, Timeout: time.Minute})
		c.SetRetry(0, 0) // a retried request would hide a failure
		f.clients = append(f.clients, c)
		f.conns = append(f.conns, tr)
	}
	ctx := context.Background()
	for r := 0; r < rc.sz.residents; r++ {
		req := client.CreateWorldRequest{
			ID: fmt.Sprintf("resident-%d", r), Scenario: "mobiledense",
			Seed: rc.warm() + 1 + int64(r), Params: map[string]string{"radios": "100"},
		}
		w, err := f.clients[0].CreateWorld(ctx, req)
		if err == nil {
			_, err = f.clients[0].RunToHorizon(ctx, w.ID)
		}
		if err != nil {
			f.close()
			return nil, fmt.Errorf("resident world: %w", err)
		}
	}
	for j := 0; j < 2; j++ {
		if res := f.session(f.clients[0], sessionOf(rc.warm(), j), &tracer{}, 0); res.failed > 0 {
			f.close()
			return nil, fmt.Errorf("warm-up session: %s", res.err)
		}
	}
	return f, nil
}

// ServeHTTP wraps the daemon to time each request server-side.
func (f *serviceFixture) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := f.tracer.Load()
	if !tr.on {
		f.srv.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64) // 0: no client span
	s := tr.start("server."+routeOf(r.Method, r.URL.Path), parent)
	f.srv.ServeHTTP(w, r)
	tr.end(s, 0)
}

func routeOf(method, path string) string {
	switch {
	case path == "/metrics":
		return "scrape"
	case method == http.MethodDelete:
		return "delete"
	case path == "/v1/worlds" && method == http.MethodPost:
		return "create"
	case strings.HasSuffix(path, "/run"):
		return "run"
	case strings.HasSuffix(path, "/result"):
		return "result"
	case strings.HasSuffix(path, "/snapshot"):
		return "snapshot"
	case strings.HasSuffix(path, "/fork"):
		return "fork"
	case strings.HasPrefix(path, "/v1/worlds/"):
		return "info"
	}
	return "other"
}

type spanKey struct{}

// spanTransport copies the client span's ID from the request context
// into spanHeader.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(spanKey{}).(uint64); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	return t.base.RoundTrip(r)
}

// sessionCfg is one session's world: session j hosts a faultstorm world
// for even j and a 100-radio mobiledense world for odd j.
type sessionCfg struct {
	scenario string
	params   map[string]string
	seed     int64
}

func sessionOf(base int64, j int) sessionCfg {
	if j%2 == 0 {
		return sessionCfg{scenario: "faultstorm", seed: base + int64(j)}
	}
	return sessionCfg{scenario: "mobiledense", params: map[string]string{"radios": "100"}, seed: base + int64(j)}
}

type sessionResult struct {
	orig, fork string // digests at the horizon
	events     uint64
	requests   int
	failed     int
	err        error
}

// session drives one world through the daemon in 16 requests: create,
// run a tenth of the horizon five times, info, snapshot, fork the
// snapshot, run the fork and the original to the horizon, result,
// scrape /metrics, and delete the world, the fork and the snapshot.
// It stops at the first failed request.
func (f *serviceFixture) session(c *client.Client, sc sessionCfg, tr *tracer, parent uint64) (res sessionResult) {
	ss := tr.start("session", parent)
	defer tr.end(ss, 0)
	call := func(route string, fn func(ctx context.Context) error) bool {
		s := tr.start("client."+route, ss.ID)
		ctx := context.Background()
		if tr.on {
			ctx = context.WithValue(ctx, spanKey{}, s.ID)
		}
		err := fn(ctx)
		tr.end(s, 0)
		res.requests++
		if err != nil {
			res.failed++
			res.err = fmt.Errorf("%s: %w", route, err)
		}
		return err == nil
	}
	var w, fw *client.WorldInfo
	var sn *client.SnapshotInfo
	var ri *client.ResultInfo
	var scrape string
	steps := func(prev uint64, wi *client.WorldInfo) uint64 { res.events += wi.Steps - prev; return wi.Steps }

	if !call("create", func(ctx context.Context) (err error) {
		w, err = c.CreateWorld(ctx, client.CreateWorldRequest{Scenario: sc.scenario, Seed: sc.seed, Params: sc.params})
		return err
	}) {
		return res
	}
	id, at, slice := w.ID, w.Steps, w.Horizon/10
	for k := 0; k < 5; k++ {
		if !call("run", func(ctx context.Context) (err error) {
			w, err = c.RunFor(ctx, id, slice)
			return err
		}) {
			return res
		}
		at = steps(at, w)
	}
	if !call("info", func(ctx context.Context) (err error) { _, err = c.World(ctx, id); return err }) ||
		!call("snapshot", func(ctx context.Context) (err error) { sn, err = c.Snapshot(ctx, id, ""); return err }) ||
		!call("fork", func(ctx context.Context) (err error) {
			fw, err = c.Fork(ctx, sn.Name, "", sc.seed+forkSeedOffset)
			return err
		}) {
		return res
	}
	fat := steps(0, fw) // the fork replayed the world up to the snapshot
	if !call("run", func(ctx context.Context) (err error) { fw, err = c.RunToHorizon(ctx, fw.ID); return err }) {
		return res
	}
	steps(fat, fw)
	res.fork = fw.Digest
	if !call("run", func(ctx context.Context) (err error) { w, err = c.RunToHorizon(ctx, id); return err }) {
		return res
	}
	steps(at, w)
	if !call("result", func(ctx context.Context) (err error) { ri, err = c.Result(ctx, id); return err }) ||
		!call("scrape", func(ctx context.Context) (err error) { scrape, err = c.MetricsText(ctx); return err }) {
		return res
	}
	res.orig = ri.Digest
	if ri.Digest != w.Digest {
		res.failed++
		res.err = fmt.Errorf("result digest %s, run reply digest %s", ri.Digest, w.Digest)
	}
	if tr.on {
		skipped, rendered := scrapeWorlds(scrape)
		tr.count("scrape.skipped", skipped)
		tr.count("scrape.rendered", rendered)
	}
	for _, del := range []func(ctx context.Context) error{
		func(ctx context.Context) error { return c.DeleteWorld(ctx, id) },
		func(ctx context.Context) error { return c.DeleteWorld(ctx, fw.ID) },
		func(ctx context.Context) error { return c.DeleteSnapshot(ctx, sn.Name) },
	} {
		if !call("delete", del) {
			break
		}
	}
	return res
}

// scrapeWorlds counts the worlds a /metrics body skipped as busy and the
// worlds it rendered.
func scrapeWorlds(body string) (skipped, rendered int) {
	seen := make(map[string]bool)
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# world ") && strings.HasSuffix(line, "skipped: busy") {
			skipped++
			continue
		}
		if _, rest, ok := strings.Cut(line, `world="`); ok {
			if id, _, ok := strings.Cut(rest, `"`); ok {
				seen[id] = true
			}
		}
	}
	return skipped, len(seen)
}

// round runs the round's sessions in pairs, sessions 2p and 2p+1 — a
// faultstorm world, then a mobiledense one — with pair p going to client
// p mod clients, so every client alternates the two kinds. A pair is
// the workload's operation: its latency has one mode, where a single
// session's has one per kind. Digests are kept by session index, so the
// round's digest order does not depend on the client count.
func (f *serviceFixture) round(tr *tracer) roundStats {
	f.tracer.Store(tr)
	results := make([]sessionResult, f.rc.sz.sessions)
	pairs := make([]time.Duration, len(results)/2)
	var wg sync.WaitGroup
	for ci, c := range f.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := ci; p < len(pairs); p += len(f.clients) {
				op := tr.start("op.service", 0)
				t0 := time.Now()
				for j := 2 * p; j < 2*p+2; j++ {
					results[j] = f.session(c, sessionOf(f.rc.base(), j), tr, op.ID)
				}
				pairs[p] = time.Since(t0)
				tr.end(op, 0)
			}
		}()
	}
	wg.Wait()
	st := roundStats{ops: pairs}
	for _, r := range results {
		st.attempted += r.requests
		st.failed += r.failed
		st.events += r.events
		st.digests = append(st.digests, r.orig, r.fork)
	}
	return st
}

// check runs sessions of a round in-process (every checkStride-th
// session, or all when tracing) — the original world straight through
// to its horizon, the fork from an in-process snapshot — and compares
// the digests with the ones the daemon reported after its sliced runs.
func (f *serviceFixture) check(tr *tracer, want []string) int {
	v := &verifier{want: want}
	for j := 0; j < f.rc.sz.sessions; j++ {
		if !f.rc.replays(tr, j) {
			v.skip()
			v.skip()
			continue
		}
		orig, fork, err := referenceSession(tr, sessionOf(f.rc.base(), j))
		if err != nil {
			orig, fork = "error: "+err.Error(), "error"
		}
		v.got(orig)
		v.got(fork)
	}
	return v.mismatches()
}

func referenceSession(tr *tracer, sc sessionCfg) (orig, fork string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s seed %d: panic: %v", sc.scenario, sc.seed, r)
		}
	}()
	s := tr.start("scenario.Build", 0)
	b, err := scenario.Build(sc.scenario, scenario.Config{Seed: sc.seed, Params: sc.params})
	tr.end(s, 0)
	if err != nil {
		return "", "", err
	}
	defer b.World.Close()
	// Five runs of a tenth of the horizon end at this instant.
	half := 5 * (b.Horizon / 10)
	s = tr.start("World.RunUntil", 0)
	n := b.World.RunUntil(half)
	tr.end(s, n)
	s = tr.start("checkpoint.Snapshot", 0)
	snap, err := checkpoint.Snapshot(b.World)
	tr.end(s, uint64(len(snap)))
	if err != nil {
		return "", "", err
	}
	fres, err := forkWorld(tr, 0, snap, sc.seed+forkSeedOffset)
	if err != nil {
		return "", "", err
	}
	s = tr.start("World.RunUntil", 0)
	n = b.World.RunUntil(b.Horizon)
	tr.end(s, n)
	s = tr.start("Built.Result", 0)
	res := b.Result()
	tr.end(s, 0)
	tr.observe(b.World, 0)
	return res.Digest, fres.Digest, nil
}

func (f *serviceFixture) close() {
	f.ts.Close()
	f.srv.Close()
	for _, t := range f.conns {
		t.CloseIdleConnections()
	}
}
