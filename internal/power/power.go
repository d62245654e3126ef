// Package power implements the McPAT-substitute power and area model
// (DESIGN.md §1): per-section leakage plus activity-scaled dynamic
// power at the paper's 22 nm / 0.8 V / 4 GHz design point (Table I).
//
// Downsizing a section power gates its array structures, which reduces
// leakage proportionally to the gated width and dynamic power slightly
// super-linearly (clock-tree and wordline overheads fall with the
// powered arrays). Reconfigurable cores pay the AnyCore 18 % energy
// penalty per cycle relative to fixed cores, and a 19 % area penalty
// (§VII).
//
// Calibration: a {6,6,6} core running a hot application draws ≈3.5 W
// and a {2,2,2} core ≈1.1 W, so a 16-core slice spans the 15–60 W range
// Fig. 1 reports.
package power

import (
	"cuttlesys/internal/config"
	"cuttlesys/internal/workload"
	"math"
)

// Full-width per-section power weights in watts (22 nm, 4 GHz, 0.8 V).
// Leakage is drawn whenever the structures are powered; dynamic is
// scaled by the application's activity factor and achieved IPC.
const (
	feLeakW, feDynW = 0.50, 0.85 // fetch/decode/rename/dispatch/ROB
	beLeakW, beDynW = 0.60, 1.05 // issue queues, register files, units
	lsLeakW, lsDynW = 0.30, 0.45 // load/store queues
	l1LeakW, l1DynW = 0.08, 0.12 // private L1s (not reconfigurable)

	// dynExp captures the mildly super-linear fall of dynamic power as a
	// section narrows (gated arrays plus their clock distribution).
	dynExp = 1.1

	// GatedCoreW is the residual power of a fully power-gated core
	// (C6-like state).
	GatedCoreW = 0.05

	// UncorePerCoreW is each core's share of the interconnect, memory
	// controllers and IO.
	UncorePerCoreW = 0.35

	// LLCWayW is the per-way power of the shared LLC (leakage-dominated
	// at 22 nm).
	LLCWayW = 0.06

	// FixedChipW is the chip power no core assignment changes: the
	// whole LLC and the uncore of the config.NumMachineCore-core chip.
	// The constant rounds once, to the same float64 as the runtime sum
	// LLCWayW·32 + UncorePerCoreW·32 (TestFixedChipWIsTheRuntimeSum).
	FixedChipW = LLCWayW*config.LLCWays + UncorePerCoreW*config.NumMachineCore
)

// Model evaluates core and chip power. Reconfigurable selects whether
// the AnyCore energy penalty applies.
type Model struct {
	Reconfigurable bool
}

// New returns a power model for reconfigurable or fixed cores.
func New(reconfigurable bool) *Model { return &Model{Reconfigurable: reconfigurable} }

// utilisation maps achieved IPC to a dynamic-activity multiplier. The
// floor is high (0.5): a stalled core still drives its clock trees,
// wordlines and schedulers, so per-core power varies far less with the
// application than with the powered configuration — the first-order
// McPAT behaviour that makes whole-core gating policies nearly
// equivalent (§VII-B) while reconfiguration retains a wide power lever.
func utilisation(ipc float64) float64 {
	if ipc < 0 {
		ipc = 0
	}
	u := 0.6 + 0.4*ipc/6
	if u > 1 {
		u = 1
	}
	return u
}

// effectiveActivity compresses an application's activity factor toward
// 1: per-application dynamic-power spread on real cores is shallow
// (clock distribution and scheduler arrays dominate), and the paper's
// gating-policy comparison (§VII-B) implies per-core power varies far
// less across jobs than across configurations.
func effectiveActivity(act float64) float64 {
	return 0.95 + 0.3*(act-0.95)
}

// DVFS voltage model (§II-A1 motivation): razor-thin margins leave a
// narrow scaling range — Vdd falls from the nominal 0.8 V at 4 GHz to a
// 0.68 V floor, so voltage (and with it power) cannot scale down nearly
// as far as frequency, which is exactly why the paper argues for
// reconfiguration beyond DVFS.
const (
	vddNominal = config.VddVolts
	vddFloor   = 0.68
)

// DVFSVdd returns the supply voltage required for the given clock.
func DVFSVdd(freqGHz float64) float64 {
	frac := freqGHz / config.BaseFreqGHz
	v := vddFloor + (vddNominal-vddFloor)*frac
	if v > vddNominal {
		v = vddNominal
	}
	if v < vddFloor {
		v = vddFloor
	}
	return v
}

// CoreAtDVFS returns the power of one active core configured as c
// running app at the given achieved IPC and clock. Dynamic power
// scales with f·V², leakage with V.
func (m *Model) CoreAtDVFS(app *workload.Profile, c config.Core, ipc, freqGHz float64) float64 {
	util := utilisation(ipc)
	act := effectiveActivity(app.Activity)
	v := DVFSVdd(freqGHz) / vddNominal
	fScale := freqGHz / config.BaseFreqGHz
	dynScale := fScale * v * v
	leakScale := v

	dyn := func(fullDynW float64, w config.Width) float64 {
		return fullDynW * math.Pow(w.Scale(), dynExp) * act * util * dynScale
	}
	leak := func(fullLeakW float64, w config.Width) float64 {
		return fullLeakW * w.Scale() * leakScale
	}

	p := leak(feLeakW, c.FE) + dyn(feDynW, c.FE) +
		leak(beLeakW, c.BE) + dyn(beDynW, c.BE) +
		leak(lsLeakW, c.LS) + dyn(lsDynW, c.LS) +
		l1LeakW*leakScale + l1DynW*act*util*dynScale

	if m.Reconfigurable {
		p *= 1 + config.ReconfigEnergyPenalty
	}
	return p
}

// Core returns the power in watts of one active core configured as c,
// running app at the given achieved IPC.
func (m *Model) Core(app *workload.Profile, c config.Core, ipc float64) float64 {
	return m.CoreAtDVFS(app, c, ipc, config.BaseFreqGHz)
}

// LLC returns the power of the shared last-level cache with the given
// number of powered ways.
func (m *Model) LLC(ways float64) float64 {
	if ways < 0 {
		ways = 0
	}
	return LLCWayW * ways
}

// Uncore returns the non-core chip power for a machine with n cores.
func (m *Model) Uncore(n int) float64 { return UncorePerCoreW * float64(n) }
