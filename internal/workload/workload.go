// Package workload provides the five multi-threaded benchmarks of the
// paper's evaluation (§6.2) as synthetic generators calibrated to Table 2:
// the same units of work, transaction counts and read-/write-set size
// distributions (average and maximum), and the same sharing patterns
// (BerkeleyDB's lock-subsystem stress, task queues, a hot ray counter,
// Raytrace's occasional 550-block read sets, Mp3d's cell collisions).
//
// Each workload builds in two modes: TM (critical sections converted to
// transactions, as the paper did) and Lock (the original lock-based
// synchronization, using test-and-test-and-set spinlocks; their
// reference form is spinLock in spinlock_test.go). The paper's Figure 4
// compares the two.
//
// Every workload runs as compiled txvm tapes (compile.go) on stepped
// threads, so its whole state is data and any run can be snapshotted
// mid-flight. The original goroutine closures over core.API survive
// only in the package's tests, as the readable reference each tape is
// checked against bit for bit.
package workload

import (
	"sync/atomic"

	"logtmse/internal/addr"
	"logtmse/internal/core"
	"logtmse/internal/mem"
	"logtmse/internal/txvm"
)

// Mode selects the synchronization flavor.
type Mode int

// Modes.
const (
	TM Mode = iota
	Lock
)

func (m Mode) String() string {
	if m == Lock {
		return "Lock"
	}
	return "TM"
}

// Config tunes a workload build.
type Config struct {
	Mode Mode
	// Threads is the number of worker threads (defaults to the machine's
	// context count, 32 on the Table 1 system).
	Threads int
	// Scale multiplies the paper's input sizes (1.0 = Table 2 inputs);
	// benchmarks use smaller scales to keep iteration fast.
	Scale float64
}

func (c Config) withDefaults(sys *core.System) Config {
	if c.Threads == 0 {
		c.Threads = sys.P.Contexts()
	}
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	return c
}

// Instance is a spawned workload, ready to Run on its system.
type Instance struct {
	PT *mem.PageTable
	// Verify checks workload invariants after the run (atomicity holds,
	// no lost updates); it returns nil on success.
	Verify func(sys *core.System) error

	// Snapshot plumbing (internal/snap): the workload-level mutable
	// state a System capture cannot see. Machines holds the compiled
	// tape machines in thread-ID order; Counters the shared
	// verification counters and Barriers the workload barriers, each in
	// a fixed order every spawn of the same workload reproduces.
	Machines []*txvm.Machine
	Counters []*atomic.Int64
	Barriers []*core.Barrier
}

// Workload describes one benchmark.
type Workload struct {
	Name       string
	Input      string // Table 2 "Input" column
	UnitOfWork string // Table 2 "Unit of Work" column
	Units      int    // Table 2 "Units Measured" at Scale=1
	spawn      func(sys *core.System, cfg Config) (*Instance, error)
}

// Spawn creates the workload's threads on sys. Call sys.Run afterwards.
func (w *Workload) Spawn(sys *core.System, cfg Config) (*Instance, error) {
	return w.spawn(sys, cfg.withDefaults(sys))
}

// All returns the five benchmarks in the paper's order.
func All() []*Workload {
	return []*Workload{
		BerkeleyDB(),
		Cholesky(),
		Radiosity(),
		Raytrace(),
		Mp3d(),
	}
}

// Extras returns additional microworkloads used by ablations (not part
// of the paper's Table 2 set).
func Extras() []*Workload {
	return []*Workload{NestedMicro()}
}

// ByName finds a benchmark (case-sensitive, as listed in Table 2) or an
// extra microworkload.
func ByName(name string) (*Workload, bool) {
	for _, w := range All() {
		if w.Name == name {
			return w, true
		}
	}
	for _, w := range Extras() {
		if w.Name == name {
			return w, true
		}
	}
	return nil, false
}

// --- shared helpers -----------------------------------------------------------

// split divides total units across n threads, giving the remainder to the
// low-numbered threads.
func split(total, n, id int) int {
	per := total / n
	if id < total%n {
		per++
	}
	return per
}

// Virtual-memory layout shared by the workloads (each workload runs in
// its own address space, so regions may coincide across workloads).
const (
	regionLocks addr.VAddr = 0x0010_0000 // spinlocks, one per block
	regionMeta  addr.VAddr = 0x0020_0000 // global metadata/counters
	regionA     addr.VAddr = 0x0100_0000 // primary shared structure
	regionB     addr.VAddr = 0x0200_0000 // secondary shared structure
	regionC     addr.VAddr = 0x0300_0000 // tertiary shared structure
	regionPriv  addr.VAddr = 0x1000_0000 // per-thread private data (stride 1 MB)
)

func privBase(id int) addr.VAddr {
	return regionPriv + addr.VAddr(id)*0x10_0000
}

func blockAt(base addr.VAddr, i int) addr.VAddr {
	return base + addr.VAddr(i)*addr.BlockBytes
}

// spreadAt places the i'th object in its own 1 KB macroblock (so the
// coarse-bit-select signature does not see false conflicts between
// distinct hot objects, matching the paper's heap-allocated structures)
// with an extra block of skew so consecutive objects fall in different
// cache sets instead of piling onto set 0 of every macroblock.
func spreadAt(base addr.VAddr, i int) addr.VAddr {
	return base + addr.VAddr(i)*(addr.MacroBlockBytes+addr.BlockBytes)
}
