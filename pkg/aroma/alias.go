// Re-exports of the internal vocabulary types that appear in the facade
// API, so a facade caller needs only this package for the common cases:
// time units, geometry, device specs, user faculties, and analysis
// options.

package aroma

import (
	"aroma/internal/core"
	"aroma/internal/device"
	"aroma/internal/geo"
	"aroma/internal/sim"
	"aroma/internal/trace"
	"aroma/internal/user"
)

// The facade's vocabulary types. Some have no caller inside this
// module, which can import internal/ directly; the README's MoveAlong
// example names Path.
//
//aroma:kept re-export: modules outside aroma cannot import internal/, so a facade caller names these here
type (
	// Time is a point in virtual simulation time (see internal/sim).
	Time = sim.Time

	// Point is a 2D position in metres.
	Point = geo.Point
	// Path is a waypoint mobility path traversed at constant speed.
	Path = geo.Path

	// Spec describes an appliance's resources (the LPC resource layer).
	Spec = device.Spec
	// UISpec describes a device's user-interface resource.
	UISpec = device.UISpec
	// ExecModel is a device execution engine's concurrency model.
	ExecModel = device.ExecModel

	// Faculties are a user's capabilities (languages, patience, skill).
	Faculties = user.Faculties
	// Goal is one user goal with the capabilities it needs.
	Goal = user.Goal

	// Purpose is a device's design purpose (the LPC intentional layer).
	Purpose = core.DesignPurpose
	// Report is the classified output of an LPC analysis.
	Report = core.Report
	// Finding is one classified concern in a Report.
	Finding = core.Finding

	// Layer identifies one of the five LPC layers.
	Layer = trace.Layer
	// Severity grades trace events and findings.
	Severity = trace.Severity
	// TraceEvent is one recorded runtime trace event.
	TraceEvent = trace.Event
)

// The facade's vocabulary constants.
//
//aroma:kept re-export: modules outside aroma cannot import internal/, so a facade caller names these here
const (
	// Virtual-time unit aliases.
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Minute      = sim.Minute
	Hour        = sim.Hour

	// Execution models.
	MultiThreaded  = device.MultiThreaded
	SingleThreaded = device.SingleThreaded

	// The five LPC layers, bottom-up.
	Environment = trace.Environment
	Physical    = trace.Physical
	Resource    = trace.Resource
	Abstract    = trace.Abstract
	Intentional = trace.Intentional

	// Severity levels.
	Debug     = trace.Debug
	Info      = trace.Info
	Issue     = trace.Issue
	Violation = trace.Violation
)

// Pt returns the point (x, y).
func Pt(x, y float64) Point { return geo.Pt(x, y) }

// AdapterSpec is the paper's embedded Aroma Adapter device spec.
func AdapterSpec() Spec { return device.AromaAdapterSpec() }

// LaptopSpec is a 2000-era presenter laptop spec.
func LaptopSpec() Spec { return device.LaptopSpec() }

// Researcher returns the faculties of the paper's researcher audience.
func Researcher() Faculties { return user.ResearcherFaculties() }

// Casual returns the faculties of the paper's casual-user audience.
func Casual() Faculties { return user.CasualFaculties() }
