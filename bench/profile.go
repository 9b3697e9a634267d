package main

import (
	"errors"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// modules are the buckets that cpu.* and alloc.* shares are reported
// for: the repository's modules by package name, the two standard
// library packages the service path leans on, the Go runtime, and
// everything else.
var modules = []string{
	"sim", "env", "geo", "radio", "mac", "netsim", "discovery", "lease",
	"session", "rfb", "device", "user", "mobility", "projector", "trace",
	"fault", "telemetry", "core", "aroma", "scenario", "checkpoint", "daemon",
	"client", "json", "http", "runtime", "other",
}

// cpuModules adds the math package, where the radio path's logarithms
// and powers spend their time; it allocates nothing, so it has no
// alloc.* share.
var cpuModules = append([]string{"math"}, modules...)

var internalModules = map[string]bool{
	"sim": true, "env": true, "geo": true, "radio": true, "mac": true,
	"netsim": true, "discovery": true, "lease": true, "session": true,
	"rfb": true, "device": true, "user": true, "mobility": true,
	"projector": true, "trace": true, "fault": true, "telemetry": true,
	"core": true, "daemon": true,
}

// bucketOf maps a profiled function name to the bucket its own (flat)
// samples count toward.
func bucketOf(fn string) string {
	pkgName := func(rest string) string {
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			return rest[:i]
		}
		return rest
	}
	switch {
	case strings.HasPrefix(fn, "aroma/internal/"):
		if m := pkgName(strings.TrimPrefix(fn, "aroma/internal/")); internalModules[m] {
			return m
		}
	case strings.HasPrefix(fn, "aroma/pkg/aroma/"):
		switch m := pkgName(strings.TrimPrefix(fn, "aroma/pkg/aroma/")); m {
		case "checkpoint", "client", "scenario":
			return m
		case "scenarios":
			return "scenario"
		}
	case strings.HasPrefix(fn, "aroma/pkg/aroma."):
		return "aroma"
	case strings.HasPrefix(fn, "encoding/json."):
		return "json"
	case strings.HasPrefix(fn, "net/http.") || strings.HasPrefix(fn, "net/http/") ||
		strings.HasPrefix(fn, "net/textproto."):
		return "http"
	case strings.HasPrefix(fn, "math."):
		return "math"
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") ||
		!strings.Contains(fn, "."):
		// Assembly routines such as gcWriteBarrier carry no package.
		return "runtime"
	}
	return "other"
}

// pprofTotals adds the flat values of one sample type in a profile file,
// less a base profile's when base is set, to into by bucket. It reads
// the listing of `go tool pprof -top`, in unit.
func pprofTotals(into map[string]float64, sampleType, unit, file, base string) error {
	args := []string{"tool", "pprof", "-top", "-nodefraction=0", "-symbolize=none",
		"-sample_index=" + sampleType, "-unit=" + unit}
	if base != "" {
		args = append(args, "-base", base)
	}
	out, err := exec.Command("go", append(args, file)...).Output()
	if err != nil {
		return fmt.Errorf("go tool pprof %s: %w", file, err)
	}
	return addTop(into, string(out), unit)
}

// addTop adds the flat column of a pprof -top listing to into by bucket.
func addTop(into map[string]float64, listing, unit string) error {
	table := false
	for _, line := range strings.Split(listing, "\n") {
		f := strings.Fields(line)
		if !table {
			table = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(f[0], unit), 64)
		if err != nil {
			return fmt.Errorf("pprof -top line %q: %w", line, err)
		}
		into[bucketOf(f[5])] += v
	}
	if !table {
		return errors.New("pprof -top printed no table")
	}
	return nil
}

// shares turns per-bucket totals into shares of their sum, one entry per
// bucket in buckets.
func shares(totals map[string]float64, buckets []string) map[string]float64 {
	var sum float64
	for _, m := range buckets {
		sum += max(totals[m], 0)
	}
	out := make(map[string]float64, len(buckets))
	for _, m := range buckets {
		if sum > 0 {
			out[m] = max(totals[m], 0) / sum
		} else {
			out[m] = 0
		}
	}
	return out
}
