// Package client is the thin Go client for the aromad daemon: typed
// wrappers over the JSON API (see cmd/aromad and internal/daemon), plus
// an SSE reader for the live trace stream. The daemon imports this
// package for the wire types, so client and server cannot drift.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"aroma/internal/sim"
	"aroma/internal/telemetry"
)

// Wire types. sim.Time is a time.Duration, so every duration field
// travels as integer nanoseconds.

// ScenarioInfo describes one registered scenario.
type ScenarioInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	// Buildable reports whether the scenario is world-registered — only
	// buildable scenarios can be hosted, snapshotted, and forked.
	Buildable bool `json:"buildable"`
}

// WorldInfo is the daemon's view of one hosted world.
type WorldInfo struct {
	ID       string   `json:"id"`
	Scenario string   `json:"scenario"`
	Seed     int64    `json:"seed"`
	Now      sim.Time `json:"now"`
	Horizon  sim.Time `json:"horizon"`
	Steps    uint64   `json:"steps"`
	Pending  int      `json:"pending"`
	Forks    int      `json:"forks"`
	// Faults is the world's armed fault plan in canonical string form
	// ("" for a clean world).
	Faults string `json:"faults,omitempty"`
	// State is "ok" for a live world and "failed" for one whose command
	// loop caught a panic. A failed world no longer advances; Failure
	// carries the captured panic message and stack.
	State   string `json:"state,omitempty"`
	Failure string `json:"failure,omitempty"`
	// Restarts counts supervisor resurrections of this world from its
	// own snapshots (0 for a world that never failed).
	Restarts int    `json:"restarts,omitempty"`
	Digest   string `json:"digest"`
}

// CreateWorldRequest builds a new world from a registered scenario.
type CreateWorldRequest struct {
	// ID names the world; empty means the daemon assigns one.
	ID string `json:"id,omitempty"`
	// Scenario is a world-registered scenario name.
	Scenario string `json:"scenario"`
	// Seed, Horizon, Verbose, Params form the scenario.Config.
	Seed    int64             `json:"seed,omitempty"`
	Horizon sim.Time          `json:"horizon,omitempty"`
	Verbose bool              `json:"verbose,omitempty"`
	Params  map[string]string `json:"params,omitempty"`
	// Faults arms a deterministic fault plan on the world
	// (internal/fault grammar). Faults are part of the workload recipe:
	// they enter the world's provenance and its digests.
	Faults string `json:"faults,omitempty"`
}

// RunRequest advances a hosted world. Exactly one of the fields should
// be set; an all-zero request steps a single event.
type RunRequest struct {
	// Events executes up to N earliest pending events.
	Events int `json:"events,omitempty"`
	// For advances the world by a relative duration.
	For sim.Time `json:"for,omitempty"`
	// Until advances the world to an absolute virtual time.
	Until sim.Time `json:"until,omitempty"`
	// ToHorizon advances the world to its scenario horizon.
	ToHorizon bool `json:"to_horizon,omitempty"`
}

// ResultInfo is a hosted world's scenario result at the current instant.
type ResultInfo struct {
	Name       string             `json:"name"`
	Seed       int64              `json:"seed"`
	SimTime    sim.Time           `json:"sim_time"`
	Steps      uint64             `json:"steps"`
	Digest     string             `json:"digest"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
	Findings   int                `json:"findings"`
	Issues     int                `json:"issues"`
	Violations int                `json:"violations"`
}

// SnapshotRequest names a snapshot taken from a hosted world.
type SnapshotRequest struct {
	// Name keys the snapshot in the store; empty means the daemon
	// derives one from the world ID.
	Name string `json:"name,omitempty"`
}

// SnapshotInfo describes one stored snapshot.
type SnapshotInfo struct {
	Name     string   `json:"name"`
	Scenario string   `json:"scenario"`
	Now      sim.Time `json:"now"`
	Digest   string   `json:"digest"`
	Bytes    int      `json:"bytes"`
}

// RestoreRequest restores a stored snapshot into a new hosted world.
type RestoreRequest struct {
	// ID names the new world; empty means the daemon assigns one.
	ID string `json:"id,omitempty"`
}

// ForkRequest forks a stored snapshot into a new hosted world whose
// random stream restarts with Seed at the snapshot instant.
type ForkRequest struct {
	ID   string `json:"id,omitempty"`
	Seed int64  `json:"seed"`
}

// Event is one trace event from the SSE stream.
type Event struct {
	At       sim.Time `json:"at"`
	Layer    string   `json:"layer"`
	Severity string   `json:"severity"`
	Entity   string   `json:"entity"`
	Message  string   `json:"message"`
}

// ErrorBody is the daemon's JSON error envelope. Code, when set, is a
// stable machine-readable error kind (one of the Code* constants);
// Error is the human-readable message.
type ErrorBody struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// CodeBodyTooLarge marks a request whose body exceeded the daemon's
// size cap (HTTP 413).
const CodeBodyTooLarge = "body_too_large"

// DefaultTimeout bounds each non-streaming request of a fresh client.
// Without it, a hung daemon (or a run-to-horizon that takes minutes on
// an unbounded world) would block the caller forever; callers driving
// legitimately long runs should pass a context deadline of their own
// or install a custom client with SetHTTPClient.
const DefaultTimeout = 30 * time.Second

// DefaultRetries is a fresh client's transport-retry budget for
// idempotent requests (see SetRetry).
const DefaultRetries = 2

// Client talks to one aromad daemon.
type Client struct {
	base string
	http *http.Client

	// retries and backoff drive the idempotent-retry policy: a GET or
	// DELETE that fails at the transport layer (connection refused or
	// reset — the daemon restarting, say) is retried up to retries
	// times with exponential backoff. POSTs are never retried: a create
	// or run whose response was lost may well have executed.
	retries int
	backoff time.Duration
}

// New returns a client for the daemon at base (e.g.
// "http://127.0.0.1:7433") with a DefaultTimeout-bounded HTTP client
// and DefaultRetries transport retries for idempotent calls. Both are
// adjustable with SetHTTPClient and SetRetry.
func New(base string) *Client {
	return &Client{
		base:    strings.TrimRight(base, "/"),
		http:    &http.Client{Timeout: DefaultTimeout},
		retries: DefaultRetries,
		backoff: 100 * time.Millisecond,
	}
}

// SetHTTPClient replaces the underlying HTTP client (tests inject
// httptest server clients here; callers with very long synchronous
// runs raise or clear the timeout). The SSE stream derives its own
// unbounded-timeout client from this one, so an overall client timeout
// never cuts a healthy event stream.
func (c *Client) SetHTTPClient(h *http.Client) { c.http = h }

// SetRetry tunes the idempotent-retry policy: up to n transport
// retries, the first after backoff, doubling each attempt. n <= 0
// disables retries; backoff <= 0 keeps the default.
func (c *Client) SetRetry(n int, backoff time.Duration) {
	c.retries = n
	if backoff > 0 {
		c.backoff = backoff
	}
}

// Scenarios lists the registered scenarios.
func (c *Client) Scenarios(ctx context.Context) ([]ScenarioInfo, error) {
	var out []ScenarioInfo
	return out, c.do(ctx, http.MethodGet, "/v1/scenarios", nil, &out)
}

// CreateWorld builds a new hosted world.
func (c *Client) CreateWorld(ctx context.Context, req CreateWorldRequest) (*WorldInfo, error) {
	var out WorldInfo
	return &out, c.do(ctx, http.MethodPost, "/v1/worlds", req, &out)
}

// Worlds lists the hosted worlds.
func (c *Client) Worlds(ctx context.Context) ([]WorldInfo, error) {
	var out []WorldInfo
	return out, c.do(ctx, http.MethodGet, "/v1/worlds", nil, &out)
}

// World returns one hosted world's current info.
func (c *Client) World(ctx context.Context, id string) (*WorldInfo, error) {
	var out WorldInfo
	return &out, c.do(ctx, http.MethodGet, "/v1/worlds/"+url.PathEscape(id), nil, &out)
}

// Run advances a hosted world per the request and returns its new info.
func (c *Client) Run(ctx context.Context, id string, req RunRequest) (*WorldInfo, error) {
	var out WorldInfo
	return &out, c.do(ctx, http.MethodPost, "/v1/worlds/"+url.PathEscape(id)+"/run", req, &out)
}

// Step executes up to n earliest pending events (n <= 0 means 1).
func (c *Client) Step(ctx context.Context, id string, n int) (*WorldInfo, error) {
	return c.Run(ctx, id, RunRequest{Events: n})
}

// RunFor advances the world by d.
func (c *Client) RunFor(ctx context.Context, id string, d sim.Time) (*WorldInfo, error) {
	return c.Run(ctx, id, RunRequest{For: d})
}

// RunToHorizon advances the world to its scenario horizon.
func (c *Client) RunToHorizon(ctx context.Context, id string) (*WorldInfo, error) {
	return c.Run(ctx, id, RunRequest{ToHorizon: true})
}

// Result computes the world's scenario result at the current instant.
func (c *Client) Result(ctx context.Context, id string) (*ResultInfo, error) {
	var out ResultInfo
	return &out, c.do(ctx, http.MethodGet, "/v1/worlds/"+url.PathEscape(id)+"/result", nil, &out)
}

// State returns the world's full canonical state export as raw JSON.
func (c *Client) State(ctx context.Context, id string) (json.RawMessage, error) {
	var out json.RawMessage
	return out, c.do(ctx, http.MethodGet, "/v1/worlds/"+url.PathEscape(id)+"/state", nil, &out)
}

// WorldMetrics returns one world's instrument snapshot: every
// instrument's value at the world's current instant plus the sampled
// sim-time series.
func (c *Client) WorldMetrics(ctx context.Context, id string) (*telemetry.Snapshot, error) {
	var out telemetry.Snapshot
	return &out, c.do(ctx, http.MethodGet, "/v1/worlds/"+url.PathEscape(id)+"/metrics", nil, &out)
}

// MetricsText fetches the daemon's Prometheus text exposition —
// server host-plane instruments plus every hosted world's registry
// labelled world="<id>".
func (c *Client) MetricsText(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", decodeError(resp)
	}
	data, err := io.ReadAll(resp.Body)
	return string(data), err
}

// DeleteWorld removes a hosted world.
func (c *Client) DeleteWorld(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/worlds/"+url.PathEscape(id), nil, nil)
}

// Snapshot checkpoints a hosted world into the daemon's snapshot store.
func (c *Client) Snapshot(ctx context.Context, id, name string) (*SnapshotInfo, error) {
	var out SnapshotInfo
	return &out, c.do(ctx, http.MethodPost, "/v1/worlds/"+url.PathEscape(id)+"/snapshot",
		SnapshotRequest{Name: name}, &out)
}

// Snapshots lists the stored snapshots.
func (c *Client) Snapshots(ctx context.Context) ([]SnapshotInfo, error) {
	var out []SnapshotInfo
	return out, c.do(ctx, http.MethodGet, "/v1/snapshots", nil, &out)
}

// SnapshotData downloads a stored snapshot's raw bytes — the same
// format pkg/aroma/checkpoint reads, so an in-process
// checkpoint.Restore of these bytes reproduces the daemon's world.
func (c *Client) SnapshotData(ctx context.Context, name string) ([]byte, error) {
	var out json.RawMessage
	err := c.do(ctx, http.MethodGet, "/v1/snapshots/"+url.PathEscape(name), nil, &out)
	return []byte(out), err
}

// DeleteSnapshot removes a stored snapshot.
func (c *Client) DeleteSnapshot(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, "/v1/snapshots/"+url.PathEscape(name), nil, nil)
}

// Restore restores a stored snapshot into a new hosted world.
func (c *Client) Restore(ctx context.Context, snapshot, id string) (*WorldInfo, error) {
	var out WorldInfo
	return &out, c.do(ctx, http.MethodPost, "/v1/snapshots/"+url.PathEscape(snapshot)+"/restore",
		RestoreRequest{ID: id}, &out)
}

// Fork forks a stored snapshot into a new hosted world reseeded with
// seed at the snapshot instant.
func (c *Client) Fork(ctx context.Context, snapshot, id string, seed int64) (*WorldInfo, error) {
	var out WorldInfo
	return &out, c.do(ctx, http.MethodPost, "/v1/snapshots/"+url.PathEscape(snapshot)+"/fork",
		ForkRequest{ID: id, Seed: seed}, &out)
}

// StreamEvents opens the world's SSE trace stream at min severity
// ("debug", "info", "issue", "violation"; empty means info) and invokes
// fn for each event until ctx is cancelled, the world is deleted, or
// the stream fails. It returns nil on a clean close (ctx cancel or
// world deletion). The stream runs on a derived client with the
// overall timeout cleared — an SSE stream is long-lived by design, so
// only ctx bounds its lifetime.
func (c *Client) StreamEvents(ctx context.Context, id, min string, fn func(Event)) error {
	u := c.base + "/v1/worlds/" + url.PathEscape(id) + "/events"
	if min != "" {
		u += "?min=" + url.QueryEscape(min)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	sse := &http.Client{
		Transport:     c.http.Transport, // keep injected transports (httptest)
		CheckRedirect: c.http.CheckRedirect,
		Jar:           c.http.Jar,
	}
	resp, err := sse.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil
		}
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue // comments, event: lines, blank separators
		}
		var ev Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return fmt.Errorf("client: bad SSE event %q: %w", data, err)
		}
		fn(ev)
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return err
	}
	return nil
}

// do performs one JSON round-trip. A nil out discards the body.
// Idempotent requests (GET, DELETE) that fail at the transport layer
// are retried per the client's retry policy; HTTP-level errors are
// never retried — the daemon answered, and its answer stands.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var data []byte
	if in != nil {
		var err error
		if data, err = json.Marshal(in); err != nil {
			return err
		}
	}
	attempts := 1
	if method == http.MethodGet || method == http.MethodDelete {
		attempts += c.retries
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			// Exponential backoff: backoff, 2*backoff, 4*backoff, ...
			select {
			case <-time.After(c.backoff << (i - 1)):
			case <-ctx.Done():
				return lastErr
			}
		}
		// A fresh request per attempt: a Request may not be reused
		// after Do, and the body reader must rewind anyway.
		var body io.Reader
		if in != nil {
			body = bytes.NewReader(data)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
		if err != nil {
			return err
		}
		if in != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.http.Do(req)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				return err
			}
			continue
		}
		defer resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			return decodeError(resp)
		}
		if out == nil {
			io.Copy(io.Discard, resp.Body)
			return nil
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return lastErr
}

// decodeError turns a non-2xx response into a Go error, preferring the
// daemon's JSON envelope.
func decodeError(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 64*1024))
	var eb ErrorBody
	if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
		return fmt.Errorf("aromad: %s (HTTP %d)", eb.Error, resp.StatusCode)
	}
	return fmt.Errorf("aromad: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
}
