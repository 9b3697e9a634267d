// Package projector implements the paper's Smart Projector challenge
// application end-to-end: "a commercially available digital projector,
// the Aroma Adapter, and the Java/Jini-based services and clients that
// allow this projector to export two services: projection of a remote
// laptop display, and remote control of the projector."
//
// Composition, faithful to the prototype's architecture:
//
//   - the adapter registers the two services with the Jini-style lookup
//     (internal/discovery), under auto-renewed leases;
//   - projection uses the VNC-style pull protocol (internal/rfb): on a
//     successful session grab the adapter streams the presenter laptop's
//     framebuffer to the projector;
//   - both services are guarded by session objects (internal/session) so
//     "another user cannot inadvertently hijack either the use or control
//     of the projector", with idle-timeout reclamation for users who
//     "forget to relinquish control";
//   - the control service ships a mobile-code proxy (internal/mobilecode)
//     that validates command codes client-side before any network round
//     trip — the Jini downloadable-proxy pattern.
package projector

import (
	"encoding/json"
	"errors"
	"fmt"

	"aroma/internal/discovery"
	"aroma/internal/mobilecode"
	"aroma/internal/netsim"
	"aroma/internal/rfb"
	"aroma/internal/session"
	"aroma/internal/sim"
	"aroma/internal/trace"
)

// Service type names used in lookup registrations.
const (
	TypeDisplay = "projector.display"
	TypeControl = "projector.control"
)

// Control command codes accepted by the projector.
const (
	CmdPowerToggle = iota
	CmdBrightnessUp
	CmdBrightnessDown
	CmdInputVGA
	CmdInputSVideo
	numCmds
)

// ProxySource is the mobile-code control proxy registered with the
// lookup service: validate(code) returns 1 when the code is a legal
// command — clients run it locally instead of burning a wireless round
// trip on an invalid command.
const ProxySource = `
func validate:
	store 0
	load 0
	push 0
	ge            ; code >= 0
	load 0
	push 5
	lt            ; code < numCmds
	and
	ret`

// BuildProxy assembles and encodes the control proxy.
func BuildProxy() ([]byte, error) {
	prog, err := mobilecode.Assemble("projector-control-proxy", ProxySource)
	if err != nil {
		return nil, err
	}
	return mobilecode.Encode(prog)
}

// control wire messages (JSON on netsim.PortControl).

type ctlRequest struct {
	Op      string      `json:"op"`
	User    string      `json:"user,omitempty"`
	RFBAddr netsim.Addr `json:"rfb,omitempty"`
	Cmd     int         `json:"cmd,omitempty"`
}

type ctlResponse struct {
	OK         bool   `json:"ok"`
	Err        string `json:"err,omitempty"`
	Projecting bool   `json:"projecting,omitempty"`
	ProjOwner  string `json:"projOwner,omitempty"`
	CtrlOwner  string `json:"ctrlOwner,omitempty"`
	Power      bool   `json:"power,omitempty"`
	Brightness int    `json:"brightness,omitempty"`
	Frames     uint64 `json:"frames,omitempty"`
}

// Config tunes the projector.
type Config struct {
	// DisplayW/H is the projected resolution.
	DisplayW, DisplayH int
	// IdleLimit for session reclamation (0 = session.DefaultIdleLimit).
	IdleLimit sim.Time
	// ReclaimPolicy for forgotten sessions.
	ReclaimPolicy session.ReclaimPolicy
	// LeaseDuration for lookup registrations (0 = discovery default).
	LeaseDuration sim.Time
	// Encoding for projection streaming.
	Encoding rfb.Encoding
}

// DefaultConfig returns the prototype's configuration.
func DefaultConfig() Config {
	return Config{
		DisplayW: 1024, DisplayH: 768,
		IdleLimit:     2 * sim.Minute,
		ReclaimPolicy: session.IdleTimeout,
		Encoding:      rfb.EncRLE,
	}
}

// SmartProjector is the adapter+projector appliance.
type SmartProjector struct {
	node   *netsim.Node
	agent  *discovery.Agent
	kernel *sim.Kernel
	log    *trace.Log
	cfg    Config

	Projection *session.Manager
	Control    *session.Manager

	power      bool
	brightness int

	display    *rfb.Client
	stopStream func()

	regDisplay *discovery.Registration
	regControl *discovery.Registration

	// FramesShown counts applied projection updates.
	FramesShown uint64
	// CommandsServed counts accepted control commands.
	CommandsServed uint64
}

// New creates the Smart Projector on the given node. The log may be nil.
func New(node *netsim.Node, agent *discovery.Agent, log *trace.Log, cfg Config) *SmartProjector {
	k := node.Kernel()
	p := &SmartProjector{
		node: node, agent: agent, kernel: k, log: log, cfg: cfg,
		Projection: session.NewManager(k, "projection"),
		Control:    session.NewManager(k, "control"),
		brightness: 5,
	}
	if cfg.IdleLimit > 0 {
		p.Projection.IdleLimit = cfg.IdleLimit
		p.Control.IdleLimit = cfg.IdleLimit
	}
	p.Projection.Policy = cfg.ReclaimPolicy
	p.Control.Policy = cfg.ReclaimPolicy
	p.Projection.OnEnd = func(owner string, reason session.EndReason) {
		p.stopProjection()
		if reason == session.Reclaimed {
			p.log.Issue(trace.Abstract, "projector",
				"projection session of %s reclaimed after idle timeout", owner)
		}
	}
	node.HandleRequest(netsim.PortControl, p.serve)
	return p
}

// Power reports projector power state.
func (p *SmartProjector) Power() bool { return p.power }

// Projecting reports whether a stream is active.
func (p *SmartProjector) Projecting() bool { return p.display != nil }

// Register announces both services to the lookup service and keeps their
// leases renewed. done (optional) fires after both registrations settle.
func (p *SmartProjector) Register(done func(error)) {
	proxy, err := BuildProxy()
	if err != nil {
		if done != nil {
			done(err)
		}
		return
	}
	remaining := 2
	var firstErr error
	settle := func(reg *discovery.Registration, err error, slot **discovery.Registration) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if err == nil {
			*slot = reg
			reg.AutoRenew(reg.LeaseDur / 3)
		}
		remaining--
		if remaining == 0 && done != nil {
			done(firstErr)
		}
	}
	p.agent.Register(discovery.Item{
		Name: "smart-projector-display", Type: TypeDisplay,
		Attrs: map[string]string{"room": "lab", "res": fmt.Sprintf("%dx%d", p.cfg.DisplayW, p.cfg.DisplayH)},
		Port:  netsim.PortControl,
	}, p.cfg.LeaseDuration, func(r *discovery.Registration, err error) {
		settle(r, err, &p.regDisplay)
	})
	p.agent.Register(discovery.Item{
		Name: "smart-projector-control", Type: TypeControl,
		Attrs: map[string]string{"room": "lab"},
		Port:  netsim.PortControl,
		Proxy: proxy,
	}, p.cfg.LeaseDuration, func(r *discovery.Registration, err error) {
		settle(r, err, &p.regControl)
	})
}

// Crash simulates the adapter failing: registrations stop renewing (the
// lookup self-cleans), streaming stops, sessions are force-released.
//
//aroma:kept fault model: the Aroma Adapter's crash, whose leases then lapse
func (p *SmartProjector) Crash() {
	if p.regDisplay != nil {
		p.regDisplay.StopAutoRenew()
	}
	if p.regControl != nil {
		p.regControl.StopAutoRenew()
	}
	p.stopProjection()
	if p.Projection.Held() {
		_ = p.Projection.ForceRelease()
	}
	if p.Control.Held() {
		_ = p.Control.ForceRelease()
	}
}

// AppState exports the abstract-layer propositions for LPC analysis.
func (p *SmartProjector) AppState() map[string]string {
	boolStr := func(b bool) string {
		if b {
			return "true"
		}
		return "false"
	}
	owner := func(m *session.Manager) string {
		if m.Held() {
			return m.Owner()
		}
		return "none"
	}
	return map[string]string{
		"projecting":       boolStr(p.Projecting()),
		"power":            boolStr(p.power),
		"projection.owner": owner(p.Projection),
		"control.owner":    owner(p.Control),
	}
}

func (p *SmartProjector) serve(src netsim.Addr, data []byte) []byte {
	var req ctlRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return mustJSON(ctlResponse{Err: "bad request"})
	}
	switch req.Op {
	case "grab-projection":
		if err := p.Projection.Grab(req.User); err != nil {
			p.log.Violation(trace.Abstract, "projector",
				"hijack attempt: %s tried to grab projection held by %s", req.User, p.Projection.Owner())
			return mustJSON(ctlResponse{Err: err.Error()})
		}
		p.startProjection(req.RFBAddr)
		return mustJSON(ctlResponse{OK: true})
	case "release-projection":
		if err := p.Projection.Release(req.User); err != nil {
			return mustJSON(ctlResponse{Err: err.Error()})
		}
		return mustJSON(ctlResponse{OK: true})
	case "grab-control":
		if err := p.Control.Grab(req.User); err != nil {
			p.log.Violation(trace.Abstract, "projector",
				"hijack attempt: %s tried to grab control held by %s", req.User, p.Control.Owner())
			return mustJSON(ctlResponse{Err: err.Error()})
		}
		return mustJSON(ctlResponse{OK: true})
	case "grab-both":
		// The paper's future-work mechanism "to manage interrelated
		// services": both sessions are acquired atomically in canonical
		// order, so two users grabbing in opposite orders can never end
		// up each holding one service.
		if err := session.GrabAll(req.User, p.Projection, p.Control); err != nil {
			p.log.Violation(trace.Abstract, "projector",
				"hijack attempt: %s tried grab-both while held (%v)", req.User, err)
			return mustJSON(ctlResponse{Err: err.Error()})
		}
		p.startProjection(req.RFBAddr)
		return mustJSON(ctlResponse{OK: true})
	case "release-both":
		n := session.ReleaseAll(req.User, p.Projection, p.Control)
		if n == 0 {
			return mustJSON(ctlResponse{Err: session.ErrNotOwner.Error()})
		}
		return mustJSON(ctlResponse{OK: true})
	case "release-control":
		if err := p.Control.Release(req.User); err != nil {
			return mustJSON(ctlResponse{Err: err.Error()})
		}
		return mustJSON(ctlResponse{OK: true})
	case "command":
		return p.serveCommand(req)
	case "status":
		return mustJSON(ctlResponse{
			OK: true, Projecting: p.Projecting(),
			ProjOwner: p.Projection.Owner(), CtrlOwner: p.Control.Owner(),
			Power: p.power, Brightness: p.brightness, Frames: p.FramesShown,
		})
	default:
		return mustJSON(ctlResponse{Err: fmt.Sprintf("unknown op %q", req.Op)})
	}
}

func (p *SmartProjector) serveCommand(req ctlRequest) []byte {
	if p.Control.Owner() != req.User {
		return mustJSON(ctlResponse{Err: session.ErrNotOwner.Error()})
	}
	_ = p.Control.Touch(req.User)
	if req.Cmd < 0 || req.Cmd >= numCmds {
		return mustJSON(ctlResponse{Err: fmt.Sprintf("invalid command %d", req.Cmd)})
	}
	switch req.Cmd {
	case CmdPowerToggle:
		p.power = !p.power
	case CmdBrightnessUp:
		if p.brightness < 10 {
			p.brightness++
		}
	case CmdBrightnessDown:
		if p.brightness > 0 {
			p.brightness--
		}
	case CmdInputVGA, CmdInputSVideo:
		// Input selection has no further model state.
	}
	p.CommandsServed++
	return mustJSON(ctlResponse{OK: true, Power: p.power, Brightness: p.brightness})
}

// startProjection begins streaming from the presenter's RFB server.
func (p *SmartProjector) startProjection(rfbAddr netsim.Addr) {
	p.stopProjection()
	cli, err := rfb.NewClient(p.node, rfbAddr, p.cfg.DisplayW, p.cfg.DisplayH)
	if err != nil {
		p.log.Issue(trace.Resource, "projector", "cannot allocate display buffer: %v", err)
		return
	}
	p.display = cli
	owner := p.Projection.Owner()
	p.stopStream = cli.Stream(2*sim.Second, func(tiles int) {
		if tiles == 0 {
			return // idle poll: not presenter activity
		}
		p.FramesShown++
		// Content frames are presenter activity: they defer reclamation.
		if p.Projection.Owner() == owner {
			_ = p.Projection.Touch(owner)
		}
	})
}

func (p *SmartProjector) stopProjection() {
	if p.stopStream != nil {
		p.stopStream()
		p.stopStream = nil
	}
	p.display = nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// Presenter is the user-side client bundle: the laptop's VNC server plus
// the projection and control clients the paper requires the user to run.
type Presenter struct {
	Name  string
	node  *netsim.Node
	agent *discovery.Agent

	VNC       *rfb.Server
	projector netsim.Addr
	haveProj  bool

	// proxy is the downloaded control proxy (nil until discovered).
	proxy *mobilecode.Program

	// Stats
	ProxyValidations uint64
	RoundTripsSaved  uint64
}

// Errors returned by presenter operations.
var (
	ErrNoProjector = errors.New("projector: no projector discovered")
	ErrDenied      = errors.New("projector: request denied")
)

// NewPresenter creates the presenter bundle on the given node.
func NewPresenter(name string, node *netsim.Node, agent *discovery.Agent) *Presenter {
	return &Presenter{Name: name, node: node, agent: agent}
}

// StartVNC starts the laptop's RFB server with the given screen size —
// the step the paper notes users forget.
func (pr *Presenter) StartVNC(w, h int, enc rfb.Encoding) error {
	fb, err := rfb.NewFramebuffer(w, h)
	if err != nil {
		return err
	}
	pr.VNC = rfb.NewServer(pr.node, fb, enc)
	return nil
}

// Discover finds the projector's services via the lookup and downloads
// the control proxy. done receives ErrNoProjector if none is registered.
func (pr *Presenter) Discover(done func(error)) {
	pr.agent.Lookup(discovery.Template{Type: TypeControl}, func(items []discovery.Item, err error) {
		if err != nil {
			done(err)
			return
		}
		if len(items) == 0 {
			done(ErrNoProjector)
			return
		}
		it := items[0]
		pr.projector = it.Provider
		pr.haveProj = true
		if len(it.Proxy) > 0 {
			if prog, err := mobilecode.Decode(it.Proxy); err == nil {
				pr.proxy = prog
			}
		}
		done(nil)
	})
}

// ProjectorAddr returns the discovered projector address.
func (pr *Presenter) ProjectorAddr() (netsim.Addr, bool) { return pr.projector, pr.haveProj }

// HasProxy reports whether the control proxy was downloaded.
func (pr *Presenter) HasProxy() bool { return pr.proxy != nil }

// DropProxy discards the downloaded control proxy — the ablation arm of
// the mobile-code experiment (every command then costs a round trip).
func (pr *Presenter) DropProxy() { pr.proxy = nil }

// call performs one control RPC.
func (pr *Presenter) call(req ctlRequest, done func(ctlResponse, error)) {
	if done == nil {
		done = func(ctlResponse, error) {}
	}
	if !pr.haveProj {
		done(ctlResponse{}, ErrNoProjector)
		return
	}
	pr.node.Call(pr.projector, netsim.PortControl, mustJSON(req), 0, func(data []byte, err error) {
		if err != nil {
			done(ctlResponse{}, err)
			return
		}
		var resp ctlResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			done(ctlResponse{}, err)
			return
		}
		if !resp.OK {
			done(resp, fmt.Errorf("%w: %s", ErrDenied, resp.Err))
			return
		}
		done(resp, nil)
	})
}

// GrabProjection acquires the projection session and starts the stream
// from this presenter's VNC server. StartVNC must have been called — the
// paper's precondition, enforced for real.
func (pr *Presenter) GrabProjection(done func(error)) {
	if pr.VNC == nil {
		if done != nil {
			done(errors.New("projector: VNC server not running on laptop"))
		}
		return
	}
	pr.call(ctlRequest{Op: "grab-projection", User: pr.Name, RFBAddr: pr.node.Addr()},
		func(_ ctlResponse, err error) {
			if done != nil {
				done(err)
			}
		})
}

// ReleaseProjection frees the projection session.
func (pr *Presenter) ReleaseProjection(done func(error)) {
	pr.call(ctlRequest{Op: "release-projection", User: pr.Name}, func(_ ctlResponse, err error) {
		if done != nil {
			done(err)
		}
	})
}

// GrabBoth atomically acquires the projection and control sessions in
// one round trip and starts the stream — the coordinated acquisition the
// paper proposes for interrelated services. StartVNC must have run.
//
//aroma:kept paper model: coordinated acquisition of interrelated services
func (pr *Presenter) GrabBoth(done func(error)) {
	if pr.VNC == nil {
		if done != nil {
			done(errors.New("projector: VNC server not running on laptop"))
		}
		return
	}
	pr.call(ctlRequest{Op: "grab-both", User: pr.Name, RFBAddr: pr.node.Addr()},
		func(_ ctlResponse, err error) {
			if done != nil {
				done(err)
			}
		})
}

// ReleaseBoth frees whichever of the two sessions this presenter holds.
//
//aroma:kept paper model: the release half of GrabBoth's coordinated acquisition
func (pr *Presenter) ReleaseBoth(done func(error)) {
	pr.call(ctlRequest{Op: "release-both", User: pr.Name}, func(_ ctlResponse, err error) {
		if done != nil {
			done(err)
		}
	})
}

// GrabControl acquires the control session.
func (pr *Presenter) GrabControl(done func(error)) {
	pr.call(ctlRequest{Op: "grab-control", User: pr.Name}, func(_ ctlResponse, err error) {
		if done != nil {
			done(err)
		}
	})
}

// ReleaseControl frees the control session.
func (pr *Presenter) ReleaseControl(done func(error)) {
	pr.call(ctlRequest{Op: "release-control", User: pr.Name}, func(_ ctlResponse, err error) {
		if done != nil {
			done(err)
		}
	})
}

// Command validates cmd with the downloaded mobile proxy (saving a round
// trip when invalid) and sends it to the projector.
func (pr *Presenter) Command(cmd int, done func(error)) {
	if pr.proxy != nil {
		pr.ProxyValidations++
		res, err := mobilecode.NewVM(nil, 0).Run(pr.proxy, "validate", int64(cmd))
		if err == nil && res.Top() == 0 {
			pr.RoundTripsSaved++
			if done != nil {
				done(fmt.Errorf("%w: proxy rejected command %d", ErrDenied, cmd))
			}
			return
		}
	}
	pr.call(ctlRequest{Op: "command", User: pr.Name, Cmd: cmd}, func(_ ctlResponse, err error) {
		if done != nil {
			done(err)
		}
	})
}

// Status queries the projector's status.
//
//aroma:kept control protocol: the client side of the status op the projector serves
func (pr *Presenter) Status(done func(projecting bool, projOwner, ctrlOwner string, err error)) {
	pr.call(ctlRequest{Op: "status"}, func(resp ctlResponse, err error) {
		if done != nil {
			done(resp.Projecting, resp.ProjOwner, resp.CtrlOwner, err)
		}
	})
}
