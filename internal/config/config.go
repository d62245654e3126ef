// Package config defines the resource-configuration space the paper
// explores (§III, §VII): each reconfigurable core is divided into a
// front-end (fetch, decode, rename, dispatch, ROB), a back-end (issue
// queues, register files, execution units) and a load/store section
// (LD/ST queues), each of which can be independently configured to
// six-, four-, or two-wide — 3³ = 27 core configurations — and each
// application is additionally assigned one of four LLC way allocations
// (½, 1, 2 or 4 ways; §VIII-A2), for 27·4 = 108 resource configurations
// per application.
//
// The package also records the simulated machine parameters of Table I
// and the AnyCore reconfiguration overheads of §VII.
package config

import "fmt"

// Width is the issue width of one core section.
type Width int

// Valid section widths (Table I: an aggressive 6-wide superscalar that
// can be downsized to 4- or 2-wide per section).
const (
	W2 Width = 2
	W4 Width = 4
	W6 Width = 6
)

// Widths lists the valid section widths in increasing order.
var Widths = [3]Width{W2, W4, W6}

// Scale returns the fraction of the full-width section that remains
// powered: w/6. Array structures in a section are power gated
// proportionally when the section is downsized (§III).
func (w Width) Scale() float64 { return float64(w) / 6.0 }

func (w Width) valid() bool { return w == W2 || w == W4 || w == W6 }

// widthIndex maps a Width to its rank 0..2.
func widthIndex(w Width) int { return (int(w) - 2) / 2 }

// Section identifies one reconfigurable pipeline region.
type Section int

// The three reconfigurable pipeline regions (§III).
const (
	FrontEnd  Section = iota // fetch, decode, rename, dispatch, ROB
	BackEnd                  // issue queues, register files, execution units
	LoadStore                // load/store queues
	numSections
)

// String implements fmt.Stringer.
func (s Section) String() string {
	switch s {
	case FrontEnd:
		return "FE"
	case BackEnd:
		return "BE"
	case LoadStore:
		return "LS"
	}
	return fmt.Sprintf("Section(%d)", int(s))
}

// Core is one core configuration {FE, BE, LS}.
type Core struct {
	FE, BE, LS Width
}

// NumCoreConfigs is the number of core configurations (3³).
const NumCoreConfigs = 27

// CoreIndex converts a Core to its canonical index in [0, 27). The
// encoding is base-3 with FE most significant, so index 0 is {2,2,2}
// and index 26 is {6,6,6}.
func (c Core) Index() int {
	return widthIndex(c.FE)*9 + widthIndex(c.BE)*3 + widthIndex(c.LS)
}

// CoreByIndex is the inverse of Core.Index. It panics when idx is out
// of range.
func CoreByIndex(idx int) Core {
	if idx < 0 || idx >= NumCoreConfigs {
		panic(fmt.Sprintf("config: core index %d out of range", idx))
	}
	return Core{
		FE: Widths[idx/9],
		BE: Widths[idx/3%3],
		LS: Widths[idx%3],
	}
}

// AllCores enumerates the 27 core configurations in index order.
func AllCores() []Core {
	cores := make([]Core, NumCoreConfigs)
	for i := range cores {
		cores[i] = CoreByIndex(i)
	}
	return cores
}

// Widest and Narrowest are the two configurations profiled online each
// decision quantum (§IV-B): the highest- and lowest-performing points.
var (
	Widest    = Core{FE: W6, BE: W6, LS: W6}
	Narrowest = Core{FE: W2, BE: W2, LS: W2}
)

// String renders the paper's "{FE,BE,LS}" notation, e.g. "{6,2,4}".
// The 27 valid configurations are served from coreNames; every slice
// record names its service's core, so formatting is left to invalid
// ones.
func (c Core) String() string {
	if c.Valid() {
		return coreNames[c.Index()]
	}
	return formatCore(c)
}

// coreNames holds String of every valid configuration, by Index.
var coreNames = func() (names [NumCoreConfigs]string) {
	for i := range names {
		names[i] = formatCore(CoreByIndex(i))
	}
	return names
}()

func formatCore(c Core) string {
	return fmt.Sprintf("{%d,%d,%d}", int(c.FE), int(c.BE), int(c.LS))
}

// Valid reports whether every section width is one of 2, 4, 6.
func (c Core) Valid() bool { return c.FE.valid() && c.BE.valid() && c.LS.valid() }

// Table I structure sizes at full width. Downsizing a section scales its
// structures by Width.Scale().
const (
	ROBEntries     = 144 // reorder buffer (front-end section)
	IQEntries      = 48  // issue queue (back-end section)
	LoadQEntries   = 48  // load queue (load/store section)
	StoreQEntries  = 48  // store queue (load/store section)
	IntRegisters   = 192
	FPRegisters    = 144
	IntALUs        = 6
	FPALUs         = 2
	BTBBytes       = 4096
	RASEntries     = 64
	L1ILatency     = 2  // cycles
	L1DLatency     = 2  // cycles
	L2Latency      = 20 // cycles, shared LLC
	DRAMLatency    = 200
	LLCWays        = 32
	LLCMBytes      = 64
	L1IKBytes      = 32
	L1DKBytes      = 64
	TechnologyNm   = 22
	VddVolts       = 0.8
	BaseFreqGHz    = 4.0
	NumMachineCore = 32 // simulated CMP size (§VII)
)

// ROBSize returns the powered ROB entries for a front-end width.
func ROBSize(fe Width) int { return int(float64(ROBEntries) * fe.Scale()) }

// LSQSize returns the powered load-queue (and, equally, store-queue)
// entries for a load/store width.
func LSQSize(ls Width) int { return int(float64(LoadQEntries) * ls.Scale()) }

// AnyCore reconfiguration overheads (§VII, from the RTL analysis in
// AnyCore [97]): reconfigurable cores pay a frequency, energy and area
// penalty relative to fixed cores.
const (
	ReconfigFreqPenalty   = 0.0167 // 1.67 % lower clock
	ReconfigEnergyPenalty = 0.18   // 18 % more energy per cycle
	ReconfigAreaPenalty   = 0.19   // 19 % more area
)

// ReconfigFreqGHz is the operating frequency of a reconfigurable core.
func ReconfigFreqGHz() float64 { return BaseFreqGHz * (1 - ReconfigFreqPenalty) }

// CacheAlloc is an LLC way allocation for one application. Allocations
// are restricted to ½, 1, 2 and 4 ways (§VIII-A2): inferring all 32
// possible allocations would inflate reconstruction overhead and most
// would be infeasible anyway with 32 cores sharing 32 ways. Two
// applications allocated ½ way each share one way.
type CacheAlloc float64

// The four per-application LLC allocations (§VIII-A2).
const (
	HalfWay  CacheAlloc = 0.5
	OneWay   CacheAlloc = 1
	TwoWays  CacheAlloc = 2
	FourWays CacheAlloc = 4
)

// CacheAllocs lists the valid allocations in increasing order.
var CacheAllocs = [4]CacheAlloc{HalfWay, OneWay, TwoWays, FourWays}

// NumCacheAllocs is the number of per-application LLC allocations.
const NumCacheAllocs = 4

// Index returns the allocation's rank in CacheAllocs, or -1 when the
// value is not one of the four valid allocations.
func (a CacheAlloc) Index() int {
	for i, v := range CacheAllocs {
		if v == a {
			return i
		}
	}
	return -1
}

// Ways returns the allocation as a float number of ways.
func (a CacheAlloc) Ways() float64 { return float64(a) }

// Resource is a full per-application resource configuration: a core
// configuration plus an LLC way allocation. This is the unit the
// reconstruction matrices and the DDS decision vector range over.
type Resource struct {
	Core  Core
	Cache CacheAlloc
}

// NumResources is the size of the per-application configuration space:
// 27 core configurations × 4 cache allocations = 108 (§VIII-A3).
const NumResources = NumCoreConfigs * NumCacheAllocs

// Index returns the canonical index in [0, 108): coreIndex·4 + cacheIndex.
func (r Resource) Index() int {
	ci := r.Cache.Index()
	if ci < 0 {
		panic(fmt.Sprintf("config: invalid cache allocation %v", r.Cache))
	}
	return r.Core.Index()*NumCacheAllocs + ci
}

// ResourceByIndex is the inverse of Resource.Index. It panics when idx
// is out of range.
func ResourceByIndex(idx int) Resource {
	if idx < 0 || idx >= NumResources {
		panic(fmt.Sprintf("config: resource index %d out of range", idx))
	}
	return Resource{
		Core:  CoreByIndex(idx / NumCacheAllocs),
		Cache: CacheAllocs[idx%NumCacheAllocs],
	}
}

// AllResources enumerates the 108 resource configurations in index
// order.
func AllResources() []Resource {
	rs := make([]Resource, NumResources)
	for i := range rs {
		rs[i] = ResourceByIndex(i)
	}
	return rs
}

// String renders e.g. "{6,2,4}/2w".
func (r Resource) String() string {
	if r.Cache == HalfWay {
		return r.Core.String() + "/0.5w"
	}
	return fmt.Sprintf("%s/%dw", r.Core, int(r.Cache))
}
