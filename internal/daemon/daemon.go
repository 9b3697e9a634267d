// Package daemon implements the aromad HTTP server: a resident
// sim-as-a-service process hosting many concurrent Aroma worlds.
//
// Each world runs behind its own command loop (see host), preserving
// the single-goroutine kernel invariant while the HTTP surface stays
// fully concurrent: two worlds step in parallel, but no world is ever
// touched by two goroutines at once. The API (all JSON, wire types in
// pkg/aroma/client):
//
//	GET    /healthz                        liveness
//	GET    /metrics                        Prometheus text exposition (server + per-world)
//	GET    /v1/scenarios                   registered scenarios
//	POST   /v1/worlds                      create world from a scenario
//	GET    /v1/worlds                      list hosted worlds
//	GET    /v1/worlds/{id}                 world info (clock, digest, ...)
//	DELETE /v1/worlds/{id}                 delete world
//	POST   /v1/worlds/{id}/run             step N events / run-for / run-until / to-horizon
//	GET    /v1/worlds/{id}/result          scenario result at the current instant
//	GET    /v1/worlds/{id}/state           full canonical state export
//	GET    /v1/worlds/{id}/output          captured scenario narration
//	GET    /v1/worlds/{id}/events          live trace stream (SSE, ?min=severity)
//	GET    /v1/worlds/{id}/metrics         instrument snapshot + sim-time series (JSON)
//	POST   /v1/worlds/{id}/snapshot        checkpoint into the snapshot store
//	GET    /v1/snapshots                   list stored snapshots
//	GET    /v1/snapshots/{name}            download raw snapshot bytes
//	DELETE /v1/snapshots/{name}            delete snapshot
//	POST   /v1/snapshots/{name}/restore    restore into a new world
//	POST   /v1/snapshots/{name}/fork       fork (restore + reseed) into a new world
//
// Snapshots are pkg/aroma/checkpoint images: bytes downloaded from the
// store restore in-process to the bit-identical world, and vice versa.
package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aroma/internal/sim"
	"aroma/internal/telemetry"
	"aroma/internal/trace"
	"aroma/pkg/aroma/checkpoint"
	"aroma/pkg/aroma/client"
	"aroma/pkg/aroma/scenario"
)

// Server hosts worlds and snapshots. It implements http.Handler.
type Server struct {
	mu     sync.Mutex
	worlds map[string]*host
	snaps  map[string]storedSnap
	nextW  int
	nextS  int
	closed bool

	// superviseBudget, when > 0, enables the self-healing supervisor:
	// a world whose command loop catches a panic is restored from its
	// most recent snapshot and swapped back in under the same ID, up to
	// this many times per world lineage (Provenance.Restarts carries
	// the count across resurrections). 0 leaves failed worlds failed.
	superviseBudget int

	// reg holds the server's own host-plane instruments (SSE drops,
	// hosted-world gauge); per-world instruments live in each world's
	// registry and are merged into /metrics with a world label.
	reg           *telemetry.Registry
	sseDropped    *telemetry.HostCounter
	worldFailed   *telemetry.HostCounter
	worldRestarts *telemetry.HostCounter

	mux *http.ServeMux
}

// Option configures a Server.
type Option func(*Server)

// WithSupervisor enables the self-healing supervisor (the aromad
// -supervise flag): when a world's command loop catches a panic, the
// daemon restores the world's most recent snapshot and swaps the
// resurrected world in under the same ID, with Provenance.Restarts
// bumped so the lineage is auditable. budget bounds the resurrections
// per world lineage — a world that keeps dying past its budget, or
// that was never snapshotted, stays terminally failed instead of
// crash-looping. budget <= 0 disables supervision.
func WithSupervisor(budget int) Option {
	return func(s *Server) { s.superviseBudget = budget }
}

type storedSnap struct {
	data []byte
	info client.SnapshotInfo
}

// New returns a ready-to-serve daemon.
func New(opts ...Option) *Server {
	s := &Server{
		worlds: make(map[string]*host),
		snaps:  make(map[string]storedSnap),
		mux:    http.NewServeMux(),
	}
	for _, opt := range opts {
		opt(s)
	}
	s.reg = telemetry.New()
	s.sseDropped = s.reg.HostCounter("host.sse_dropped_total")
	s.worldFailed = s.reg.HostCounter("host.world_failures_total")
	s.worldRestarts = s.reg.HostCounter("host.world_restarts_total")
	s.reg.GaugeFunc("host.worlds", func() float64 { return float64(s.WorldCount()) })
	s.reg.GaugeFunc("host.worlds_failed", func() float64 { return float64(s.failedCount()) })
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	s.mux.HandleFunc("POST /v1/worlds", s.handleCreateWorld)
	s.mux.HandleFunc("GET /v1/worlds", s.handleListWorlds)
	s.mux.HandleFunc("GET /v1/worlds/{id}", s.handleWorldInfo)
	s.mux.HandleFunc("DELETE /v1/worlds/{id}", s.handleDeleteWorld)
	s.mux.HandleFunc("POST /v1/worlds/{id}/run", s.handleRun)
	s.mux.HandleFunc("GET /v1/worlds/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/worlds/{id}/state", s.handleState)
	s.mux.HandleFunc("GET /v1/worlds/{id}/output", s.handleOutput)
	s.mux.HandleFunc("GET /v1/worlds/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/worlds/{id}/metrics", s.handleWorldMetrics)
	s.mux.HandleFunc("POST /v1/worlds/{id}/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("GET /v1/snapshots", s.handleListSnapshots)
	s.mux.HandleFunc("GET /v1/snapshots/{name}", s.handleSnapshotData)
	s.mux.HandleFunc("DELETE /v1/snapshots/{name}", s.handleDeleteSnapshot)
	s.mux.HandleFunc("POST /v1/snapshots/{name}/restore", s.handleRestore)
	s.mux.HandleFunc("POST /v1/snapshots/{name}/fork", s.handleFork)
	return s
}

// ServeHTTP dispatches to the API routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close shuts down every hosted world. Pending SSE streams end; later
// API calls against worlds fail. Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for _, h := range s.worlds {
		h.close()
	}
	s.worlds = make(map[string]*host)
}

// WorldCount returns the number of hosted worlds.
func (s *Server) WorldCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.worlds)
}

// failedCount returns the number of hosted worlds in the failed state.
func (s *Server) failedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, h := range s.worlds {
		if h.isFailed() {
			n++
		}
	}
	return n
}

// addWorld registers a freshly built world under id (or an assigned
// "w<N>" when empty) and starts its command loop. out, when non-nil,
// is the narration buffer the world's closures write to.
func (s *Server) addWorld(id, scen string, b *scenario.Built, out *bytes.Buffer) (*host, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("daemon is shutting down")
	}
	if id == "" {
		s.nextW++
		id = fmt.Sprintf("w%d", s.nextW)
	} else if strings.ContainsAny(id, "/ \t\n") {
		return nil, fmt.Errorf("world id %q contains separators", id)
	}
	if _, dup := s.worlds[id]; dup {
		return nil, fmt.Errorf("world %q already exists", id)
	}
	// Every hosted world carries telemetry so /metrics always has data
	// to scrape, its series reserved up to the horizon; enabling is
	// idempotent and digest-neutral. The world is not hosted yet, so
	// touching it here cannot race its command loop.
	b.EnableTelemetry()
	h := newHost(id, scen, b, out, s.failHook())
	s.worlds[id] = h
	return h, nil
}

// failHook returns the callback a new host fires when its command loop
// catches a panic: always count the failure, and hand the host to the
// supervisor when one is configured.
func (s *Server) failHook() func(*host) {
	return func(h *host) {
		s.worldFailed.Inc()
		if s.superviseBudget > 0 {
			s.resurrect(h)
		}
	}
}

// resurrect is the supervisor's self-healing path, run on a detached
// goroutine after a host fails: restore the world's most recent
// snapshot, stamp the resurrection into Provenance.Restarts, and swap
// the new host in under the same ID. A world that was never
// snapshotted, has exhausted its restart budget, or was deleted in the
// meantime stays failed — bounded recovery, never a crash-loop.
func (s *Server) resurrect(h *host) {
	s.mu.Lock()
	sn, ok := s.snaps[h.lastSnap]
	current := s.worlds[h.id]
	closed := s.closed
	s.mu.Unlock()
	if closed || current != h || !ok || h.restarts >= s.superviseBudget {
		return
	}

	// The restore replays the snapshot's recipe — fault plan included —
	// and proves the replay before the world is trusted with traffic.
	b, err := checkpoint.RestoreBuilt(sn.data)
	if err != nil {
		return
	}
	if prov, ok := b.World.Provenance(); ok {
		prov.Restarts = h.restarts + 1
		b.World.SetProvenance(prov)
	}
	b.EnableTelemetry()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.worlds[h.id] != h {
		return // deleted (or daemon shut down) while restoring
	}
	nh := newHost(h.id, h.scen, b, nil, s.failHook())
	nh.lastSnap = h.lastSnap
	s.worlds[h.id] = nh
	h.close()
	s.worldRestarts.Inc()
}

// world resolves the request's {id}, writing a 404 on a miss.
func (s *Server) world(w http.ResponseWriter, r *http.Request) *host {
	id := r.PathValue("id")
	s.mu.Lock()
	h := s.worlds[id]
	s.mu.Unlock()
	if h == nil {
		writeErr(w, http.StatusNotFound, "no world %q", id)
	}
	return h
}

// info assembles a WorldInfo on the world's own loop. A failed world —
// whose loop refuses commands — answers from hosting-time data plus the
// captured failure, so listings and inspection keep working after a
// crash.
func (s *Server) info(h *host) (client.WorldInfo, error) {
	var wi client.WorldInfo
	err := h.do(func() {
		world := h.built.World
		k := world.Kernel()
		prov, _ := world.Provenance()
		wi = client.WorldInfo{
			ID:       h.id,
			Scenario: h.scen,
			Seed:     world.Seed(),
			Now:      world.Now(),
			Horizon:  h.built.Horizon,
			Steps:    k.Steps(),
			Pending:  k.Pending(),
			Forks:    len(prov.Forks),
			Faults:   prov.Faults,
			Restarts: prov.Restarts,
			Digest:   world.Digest(),
			State:    "ok",
		}
	})
	if errors.Is(err, errWorldFailed) {
		return client.WorldInfo{
			ID:       h.id,
			Scenario: h.scen,
			Seed:     h.seed,
			Restarts: h.restarts,
			State:    "failed",
			Failure:  h.failure,
		}, nil
	}
	return wi, err
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// scrapeWait bounds how long a /metrics scrape waits for any one
// world's command loop to accept the render. A world deep in a long
// run is skipped (noted as an exposition comment) rather than stalling
// the whole scrape.
const scrapeWait = 250 * time.Millisecond

// handleMetrics serves the Prometheus text exposition: the server's
// own host-plane instruments first, then every hosted world's registry
// with a world="<id>" label, in world-ID order.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	hosts := make([]*host, 0, len(s.worlds))
	for _, h := range s.worlds {
		hosts = append(hosts, h)
	}
	s.mu.Unlock()
	sort.Slice(hosts, func(i, j int) bool { return hosts[i].id < hosts[j].id })
	bufs := s.scrapeWorlds(hosts)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
	for i, h := range hosts {
		if bufs[i] == nil {
			fmt.Fprintf(w, "# world %s skipped: busy\n", h.id)
			continue
		}
		w.Write(bufs[i].Bytes())
	}
}

// scrapeWorlds renders each world's registry into a private buffer,
// concurrently across worlds. A nil buffer marks a world whose command
// loop was busy past the scrape budget (or already closed).
func (s *Server) scrapeWorlds(hosts []*host) []*bytes.Buffer {
	bufs := make([]*bytes.Buffer, len(hosts))
	var wg sync.WaitGroup
	for i, h := range hosts {
		wg.Add(1)
		//aroma:goroutine the scrape touches each world only via tryDo, which serializes onto its command loop
		go func(i int, h *host) {
			defer wg.Done()
			buf := &bytes.Buffer{}
			if err := h.tryDo(func() {
				if reg := h.built.World.Telemetry(); reg != nil {
					reg.WritePrometheus(buf, telemetry.L("world", h.id))
				}
			}, scrapeWait); err == nil {
				bufs[i] = buf
			}
		}(i, h)
	}
	wg.Wait()
	return bufs
}

// handleWorldMetrics serves one world's instrument snapshot — final
// values plus the sampled sim-time series — as JSON.
func (s *Server) handleWorldMetrics(w http.ResponseWriter, r *http.Request) {
	h := s.world(w, r)
	if h == nil {
		return
	}
	var snap *telemetry.Snapshot
	if err := h.do(func() {
		if reg := h.built.World.Telemetry(); reg != nil {
			snap = reg.Snapshot(int64(h.built.World.Now()))
		}
	}); err != nil {
		writeErr(w, http.StatusGone, "%v", err)
		return
	}
	if snap == nil {
		writeErr(w, http.StatusNotFound, "world %q has no telemetry", h.id)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	var out []client.ScenarioInfo
	for _, sc := range scenario.All() {
		out = append(out, client.ScenarioInfo{
			Name:        sc.Name,
			Description: sc.Description,
			Buildable:   scenario.Buildable(sc.Name),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCreateWorld(w http.ResponseWriter, r *http.Request) {
	var req client.CreateWorldRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Scenario == "" {
		writeErr(w, http.StatusBadRequest, "scenario is required (buildable: %v)", scenario.BuildableNames())
		return
	}
	// The build runs on the HTTP goroutine: the world is not hosted yet,
	// so nothing else can reach it. Narration is captured in a buffer
	// the scenario's closures keep writing to (the /output endpoint).
	out := &bytes.Buffer{}
	b, err := scenario.Build(req.Scenario, scenario.Config{
		Seed:    req.Seed,
		Horizon: req.Horizon,
		Verbose: req.Verbose,
		Params:  req.Params,
		Out:     out,
		Faults:  req.Faults,
	})
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.finishCreate(w, req.ID, req.Scenario, b, out)
}

// finishCreate hosts a built world and answers with its info.
func (s *Server) finishCreate(w http.ResponseWriter, id, scen string, b *scenario.Built, out *bytes.Buffer) {
	h, err := s.addWorld(id, scen, b, out)
	if err != nil {
		writeErr(w, http.StatusConflict, "%v", err)
		return
	}
	wi, err := s.info(h)
	if err != nil {
		writeErr(w, http.StatusGone, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, wi)
}

func (s *Server) handleListWorlds(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	hosts := make([]*host, 0, len(s.worlds))
	for _, h := range s.worlds {
		hosts = append(hosts, h)
	}
	s.mu.Unlock()
	sort.Slice(hosts, func(i, j int) bool { return hosts[i].id < hosts[j].id })
	out := make([]client.WorldInfo, 0, len(hosts))
	for _, h := range hosts {
		if wi, err := s.info(h); err == nil {
			out = append(out, wi)
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleWorldInfo(w http.ResponseWriter, r *http.Request) {
	h := s.world(w, r)
	if h == nil {
		return
	}
	wi, err := s.info(h)
	if err != nil {
		writeErr(w, http.StatusGone, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, wi)
}

func (s *Server) handleDeleteWorld(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	h := s.worlds[id]
	delete(s.worlds, id)
	s.mu.Unlock()
	if h == nil {
		writeErr(w, http.StatusNotFound, "no world %q", id)
		return
	}
	h.close()
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	h := s.world(w, r)
	if h == nil {
		return
	}
	var req client.RunRequest
	if !readJSON(w, r, &req) {
		return
	}
	err := h.do(func() {
		world := h.built.World
		switch {
		case req.ToHorizon:
			world.RunUntil(h.built.Horizon)
		case req.Until > 0:
			world.RunUntil(req.Until)
		case req.For > 0:
			world.RunFor(req.For)
		default:
			n := req.Events
			if n <= 0 {
				n = 1
			}
			for i := 0; i < n && world.Step(); i++ {
			}
		}
	})
	if err != nil {
		writeErr(w, http.StatusGone, "%v", err)
		return
	}
	wi, err := s.info(h)
	if err != nil {
		writeErr(w, http.StatusGone, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, wi)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	h := s.world(w, r)
	if h == nil {
		return
	}
	var ri client.ResultInfo
	err := h.do(func() {
		res := h.built.Result()
		ri = client.ResultInfo{
			Name:       h.scen,
			Seed:       res.Seed,
			SimTime:    res.SimTime,
			Steps:      res.Steps,
			Digest:     res.Digest,
			Metrics:    res.Metrics,
			Findings:   res.Findings(),
			Issues:     res.Issues(),
			Violations: res.Violations(),
		}
	})
	if err != nil {
		writeErr(w, http.StatusGone, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, ri)
}

func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	h := s.world(w, r)
	if h == nil {
		return
	}
	var data []byte
	var err error
	doErr := h.do(func() { data, err = h.built.World.MarshalState() })
	if doErr != nil {
		writeErr(w, http.StatusGone, "%v", doErr)
		return
	}
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func (s *Server) handleOutput(w http.ResponseWriter, r *http.Request) {
	h := s.world(w, r)
	if h == nil {
		return
	}
	var text string
	if err := h.do(func() {
		if h.out != nil {
			text = h.out.String()
		}
	}); err != nil {
		writeErr(w, http.StatusGone, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, text)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	h := s.world(w, r)
	if h == nil {
		return
	}
	var req client.SnapshotRequest
	if !readJSON(w, r, &req) {
		return
	}
	var (
		data   []byte
		err    error
		now    sim.Time
		digest string
	)
	doErr := h.do(func() {
		data, err = checkpoint.Snapshot(h.built.World)
		now, digest = h.built.World.Now(), h.built.World.Digest()
	})
	if doErr != nil {
		writeErr(w, http.StatusGone, "%v", doErr)
		return
	}
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}

	s.mu.Lock()
	name := req.Name
	if name == "" {
		s.nextS++
		name = fmt.Sprintf("s%d", s.nextS)
	}
	if _, dup := s.snaps[name]; dup {
		s.mu.Unlock()
		writeErr(w, http.StatusConflict, "snapshot %q already exists", name)
		return
	}
	info := client.SnapshotInfo{
		Name: name, Scenario: h.scen, Now: now, Digest: digest, Bytes: len(data),
	}
	s.snaps[name] = storedSnap{data: data, info: info}
	// The newest snapshot becomes the world's resurrection point
	// (lastSnap is guarded by s.mu, not the command loop).
	h.lastSnap = name
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleListSnapshots(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]client.SnapshotInfo, 0, len(s.snaps))
	for _, sn := range s.snaps {
		out = append(out, sn.info)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, http.StatusOK, out)
}

// snap resolves the request's {name}, writing a 404 on a miss.
func (s *Server) snap(w http.ResponseWriter, r *http.Request) (storedSnap, bool) {
	name := r.PathValue("name")
	s.mu.Lock()
	sn, ok := s.snaps[name]
	s.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, "no snapshot %q", name)
	}
	return sn, ok
}

func (s *Server) handleSnapshotData(w http.ResponseWriter, r *http.Request) {
	sn, ok := s.snap(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(sn.data)
}

func (s *Server) handleDeleteSnapshot(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	_, ok := s.snaps[name]
	delete(s.snaps, name)
	s.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, "no snapshot %q", name)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	sn, ok := s.snap(w, r)
	if !ok {
		return
	}
	var req client.RestoreRequest
	if !readJSON(w, r, &req) {
		return
	}
	b, err := checkpoint.RestoreBuilt(sn.data)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.finishCreate(w, req.ID, sn.info.Scenario, b, nil)
}

func (s *Server) handleFork(w http.ResponseWriter, r *http.Request) {
	sn, ok := s.snap(w, r)
	if !ok {
		return
	}
	var req client.ForkRequest
	if !readJSON(w, r, &req) {
		return
	}
	b, err := checkpoint.ForkBuilt(sn.data, req.Seed)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.finishCreate(w, req.ID, sn.info.Scenario, b, nil)
}

// sseChanCap is the per-stream event buffer between a world's loop
// goroutine and its SSE writer. A var, not a const, so the drop-path
// test can shrink it to a size a test workload can overflow.
var sseChanCap = 4096

// handleEvents streams the world's trace over SSE. The subscriber
// callback runs on the world's loop goroutine and fully formats each
// event there (the trace's lazy messages are not goroutine-safe), then
// hands the ready-made wire event to this handler's channel. A slow
// consumer drops events rather than stalling the simulation; the drop
// count is reported as an SSE comment when the stream ends.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	h := s.world(w, r)
	if h == nil {
		return
	}
	min, err := parseSeverity(r.URL.Query().Get("min"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}

	ch := make(chan client.Event, sseChanCap)
	var dropped atomic.Uint64
	var cancel func()
	if err := h.do(func() {
		cancel = h.built.World.Subscribe(min, func(ev trace.Event) {
			ce := client.Event{
				At:       ev.At,
				Layer:    ev.Layer.String(),
				Severity: ev.Severity.String(),
				Entity:   ev.Entity,
				Message:  ev.Message(),
			}
			select {
			case ch <- ce:
			default:
				dropped.Add(1)
				s.sseDropped.Inc()
			}
		})
	}); err != nil {
		writeErr(w, http.StatusGone, "%v", err)
		return
	}
	// Cancel from a detached goroutine: the loop may be deep in a long
	// run command, and the disconnecting client must not wait for it.
	//aroma:goroutine touches the world only via h.do, which serializes onto the command loop
	defer func() { go h.do(func() { cancel() }) }()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": stream open world=%s min=%s\n\n", h.id, min)
	flusher.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case <-h.quit:
			fmt.Fprintf(w, ": world deleted (dropped=%d)\n\n", dropped.Load())
			flusher.Flush()
			return
		case <-h.failedC:
			fmt.Fprintf(w, ": world failed (dropped=%d)\n\n", dropped.Load())
			flusher.Flush()
			return
		case ev := <-ch:
			data, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "data: %s\n\n", data)
			flusher.Flush()
		}
	}
}

// parseSeverity maps the ?min= query value to a trace severity.
func parseSeverity(s string) (trace.Severity, error) {
	switch strings.ToLower(s) {
	case "", "info":
		return trace.Info, nil
	case "debug":
		return trace.Debug, nil
	case "issue":
		return trace.Issue, nil
	case "violation":
		return trace.Violation, nil
	}
	return 0, fmt.Errorf("unknown severity %q (debug, info, issue, violation)", s)
}

// maxBodyBytes caps every JSON request body.
const maxBodyBytes = 1 << 20

// readJSON decodes the request body into v; an empty body is allowed
// (v keeps its zero value). It returns false after writing a 413 for a
// body over maxBodyBytes, or a 400 for a malformed one.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.EOF) {
			return true
		}
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, client.ErrorBody{
				Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit),
				Code:  client.CodeBodyTooLarge,
			})
			return false
		}
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, client.ErrorBody{Error: fmt.Sprintf(format, args...)})
}
