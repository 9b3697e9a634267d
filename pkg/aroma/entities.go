package aroma

import (
	"aroma/internal/core"
	"aroma/internal/device"
	"aroma/internal/discovery"
	"aroma/internal/geo"
	"aroma/internal/mac"
	"aroma/internal/mobility"
	"aroma/internal/netsim"
	"aroma/internal/radio"
	"aroma/internal/sim"
	"aroma/internal/user"
)

// Device is one appliance in the world: its LPC model entity plus (for
// online devices) the auto-wired radio, MAC station, and network node,
// and (for mobile devices) its mover or wanderer.
type Device struct {
	world    *World
	entity   *core.DeviceEntity
	radio    *radio.Radio
	station  *mac.Station
	node     *netsim.Node
	agent    *discovery.Agent
	mover    *mobility.Mover
	wanderer *mobility.Wanderer
}

// DeviceOption configures a device added with AddDevice or AddLookup.
type DeviceOption func(*deviceOptions)

type deviceOptions struct {
	spec           device.Spec
	appState       map[string]string
	purpose        core.DesignPurpose
	operatingRange float64
	channel        int
	offline        bool
	path           *geo.Path
	wander         bool
	wanderSpeed    float64
	moveTick       sim.Time
}

// WithSpec sets the device's resource-layer spec.
func WithSpec(s device.Spec) DeviceOption {
	return func(o *deviceOptions) { o.spec = s }
}

// WithAppState sets the device's abstract-layer application state.
func WithAppState(state map[string]string) DeviceOption {
	return func(o *deviceOptions) { o.appState = state }
}

// WithPurpose sets the device's intentional-layer design purpose.
func WithPurpose(p core.DesignPurpose) DeviceOption {
	return func(o *deviceOptions) { o.purpose = p }
}

// WithOperatingRange requires users to be within m metres to operate the
// device (the paper's physical-layer proximity constraint).
func WithOperatingRange(m float64) DeviceOption {
	return func(o *deviceOptions) { o.operatingRange = m }
}

// WithChannel overrides the world's default radio channel for this device.
func WithChannel(ch int) DeviceOption {
	return func(o *deviceOptions) { o.channel = ch }
}

// Offline adds the device as a pure model entity with no radio, station,
// or network node — for appliances analyzed but never networked.
func Offline() DeviceOption {
	return func(o *deviceOptions) { o.offline = true }
}

// AddDevice creates a device at pos, wiring a radio on the shared
// medium, a MAC station, and a network node (unless Offline), and adds
// its entity to the analyzed system. It panics on a duplicate or empty
// name — misassembly is a programming error in scenario code.
func (w *World) AddDevice(name string, pos geo.Point, opts ...DeviceOption) *Device {
	w.checkName("device", name)
	o := deviceOptions{channel: w.opts.channel}
	for _, opt := range opts {
		opt(&o)
	}
	d := &Device{
		world: w,
		entity: &core.DeviceEntity{
			Name:            name,
			Pos:             pos,
			Spec:            o.spec,
			AppState:        o.appState,
			Purpose:         o.purpose,
			OperatingRangeM: o.operatingRange,
		},
	}
	if !o.offline {
		d.radio = w.medium.NewRadio(name, pos, o.channel, w.opts.txPowerDBm)
		d.station = w.mac.AddStation(d.radio)
		d.node = w.net.NewNode(name, d.station)
		d.entity.Radio = d.radio
	}
	w.devices = append(w.devices, d)
	w.byName[name] = d
	d.startMobility(&o)
	return d
}

// Name returns the device name.
func (d *Device) Name() string { return d.entity.Name }

// Entity returns the LPC model entity (mutable: scenarios may update
// AppState as the run evolves).
func (d *Device) Entity() *core.DeviceEntity { return d.entity }

// Node returns the device's network node (nil for offline devices).
func (d *Device) Node() *netsim.Node { return d.node }

// Station returns the device's MAC station (nil for offline devices).
func (d *Device) Station() *mac.Station { return d.station }

// Radio returns the device's radio (nil for offline devices).
func (d *Device) Radio() *radio.Radio { return d.radio }

// Agent returns the device's discovery agent, creating it on first use.
// It panics for offline devices.
func (d *Device) Agent() *discovery.Agent {
	if d.node == nil {
		panic("aroma: offline device " + d.entity.Name + " has no discovery agent")
	}
	if d.agent == nil {
		d.agent = discovery.NewAgent(d.node)
	}
	return d.agent
}

// Pos returns the device's current position.
func (d *Device) Pos() geo.Point { return d.entity.Pos }

// SetPos moves the device, keeping the radio (when present) and the
// model entity in sync — the mobility hook.
func (d *Device) SetPos(p geo.Point) {
	d.entity.Pos = p
	if d.radio != nil {
		d.radio.SetPos(p)
	}
}

// SetState updates one abstract-layer application-state proposition.
func (d *Device) SetState(prop, value string) {
	if d.entity.AppState == nil {
		d.entity.AppState = make(map[string]string)
	}
	d.entity.AppState[prop] = value
}

// User is one human participant: the five-layer user model plus the
// entity the analyzer reads.
type User struct {
	world  *World
	u      *user.User
	entity *core.UserEntity
}

// UserOption configures a user added with AddUser.
type UserOption func(*userOptions)

type userOptions struct {
	faculties    user.Faculties
	hasFaculties bool
	goals        []user.Goal
	beliefs      [][2]string
	operates     []string
	voice        bool
	halfLife     sim.Time
	hasHalfLife  bool
	onAbandon    func(cause string)
}

// WithFaculties sets the user's faculties (default: CasualFaculties).
func WithFaculties(f user.Faculties) UserOption {
	return func(o *userOptions) { o.faculties, o.hasFaculties = f, true }
}

// WithGoal adds a goal needing the given device capabilities.
func WithGoal(name string, importance float64, needs ...string) UserOption {
	return func(o *userOptions) {
		o.goals = append(o.goals, user.Goal{Name: name, Importance: importance, Needs: needs})
	}
}

// Believing seeds the user's mental model with a proposition.
func Believing(prop, value string) UserOption {
	return func(o *userOptions) { o.beliefs = append(o.beliefs, [2]string{prop, value}) }
}

// Operating declares which devices the user interacts with.
func Operating(devices ...string) UserOption {
	return func(o *userOptions) { o.operates = append(o.operates, devices...) }
}

// UsingVoice marks that the user drives devices by voice, enabling the
// environment-layer noise checks.
func UsingVoice() UserOption {
	return func(o *userOptions) { o.voice = true }
}

// WithFrustrationHalfLife sets how quickly the user's frustration decays.
func WithFrustrationHalfLife(t sim.Time) UserOption {
	return func(o *userOptions) { o.halfLife, o.hasHalfLife = t, true }
}

// OnAbandon registers the callback fired when the user gives up.
func OnAbandon(fn func(cause string)) UserOption {
	return func(o *userOptions) { o.onAbandon = fn }
}

// AddUser creates a user at pos and adds their entity to the analyzed
// system.
func (w *World) AddUser(name string, pos geo.Point, opts ...UserOption) *User {
	o := userOptions{}
	for _, opt := range opts {
		opt(&o)
	}
	if !o.hasFaculties {
		o.faculties = user.CasualFaculties()
	}
	u := user.New(w.kernel, name, o.faculties)
	u.Pos = pos
	u.Goals = o.goals
	for _, b := range o.beliefs {
		u.Mental.Believe(b[0], b[1])
	}
	if o.hasHalfLife {
		u.FrustrationHalfLife = o.halfLife
	}
	u.OnAbandon = o.onAbandon
	au := &User{
		world:  w,
		u:      u,
		entity: &core.UserEntity{U: u, Operates: o.operates, UsesVoice: o.voice},
	}
	w.users = append(w.users, au)
	return au
}

// Name returns the user's name.
func (us *User) Name() string { return us.u.Name }

// U returns the underlying five-layer user model.
func (us *User) U() *user.User { return us.u }

// Entity returns the analyzed user entity.
func (us *User) Entity() *core.UserEntity { return us.entity }

// Pos returns the user's current position.
func (us *User) Pos() geo.Point { return us.u.Pos }

// SetPos moves the user.
func (us *User) SetPos(p geo.Point) { us.u.Pos = p }

// Lookup is a running discovery lookup service plus the device hosting
// it. The embedded *discovery.Lookup exposes Count, Subscribers, etc.
type Lookup struct {
	*discovery.Lookup
	Host *Device
}

// AddLookup creates a device at pos hosting a started lookup service.
// The host defaults to the paper's Aroma Adapter spec; DeviceOptions
// override it.
func (w *World) AddLookup(name string, pos geo.Point, opts ...DeviceOption) *Lookup {
	opts = append([]DeviceOption{WithSpec(device.AromaAdapterSpec())}, opts...)
	host := w.AddDevice(name, pos, opts...)
	if host.node == nil {
		panic("aroma: lookup " + name + " cannot be Offline(): it serves the network")
	}
	lk := &Lookup{Lookup: discovery.NewLookup(host.node), Host: host}
	lk.Start()
	w.lookups = append(w.lookups, lk)
	return lk
}

// Lookups returns the world's lookup services in creation order.
func (w *World) Lookups() []*Lookup { return w.lookups }
