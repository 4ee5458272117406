// Package txvm compiles workload bodies into flat per-thread op tapes
// and executes them on core's stepped-thread path (no goroutine, no
// channel handoff per response). It is the only executor the paper's
// workloads run on in production.
//
// A tape is a []Instr: a compact encoding of the workload's memory-op
// stream — loads, stores, exchanges, fetch-adds, transaction begins and
// commits, compute delays — plus the immediate address generators
// (zipf, uniform, sorted-run, sequential-ring) the synthetic workloads
// draw their sharing patterns from. Register draws execute at tape run
// time against the thread's own RNG, in exactly the order the
// workload's closure-based reference body would consume them, so a
// compiled run's random stream — and with it every Stats counter — is
// bit-identical to that reference (pinned by
// TestCompiledMatchesInterpreted in internal/workload, where the
// reference bodies live as test code).
//
// Aborts replay by program counter: every Begin records its own pc in a
// per-depth frame table, and an abort response unwinds the machine to
// the frame of the deepest surviving transaction — re-running the body
// ops (and any in-body RNG draws) just as the interpreted transaction()
// retry loop re-runs its closure, while draws made before the begin are
// not repeated.
package txvm

import (
	"sync/atomic"

	"logtmse/internal/addr"
	"logtmse/internal/core"
)

// Code is an opcode.
type Code uint8

// Opcodes. Inline ops execute back-to-back inside Machine.run without
// touching the memory system; dispatching ops issue exactly one (or a
// loop of) simulated requests and suspend the machine until the
// response event.
const (
	// Inline register ops.
	OpSet  Code = iota // R[Dst] = A
	OpMov              // R[Dst] = R[Src]
	OpAddI             // R[Dst] = R[Src] + A
	OpAdd              // R[Dst] = R[Src] + R[Src2]
	OpMulI             // R[Dst] = R[Src] * A
	OpDivI             // R[Dst] = R[Src] / A
	OpModI             // R[Dst] = R[Src] % A
	OpMinI             // R[Dst] = min(R[Src], A)

	// Inline control flow.
	OpJmp  // pc = Tgt
	OpJz   // if R[Src] == 0: pc = Tgt
	OpJnz  // if R[Src] != 0: pc = Tgt
	OpJltI // if R[Src] < A: pc = Tgt
	OpJgeI // if R[Src] >= A: pc = Tgt

	// Inline RNG draws (the workloads' address/set-size generators).
	OpRandInt   // R[Dst] = Intn(A)
	OpRandFlag  // R[Dst] = 1 if Float64() < F else 0
	OpDrawCount // R[Dst] = DrawCount(F, A)
	OpZipf      // R[Dst] = ZipfIdx(A, F)
	OpZipfVec   // V[Vec][j] = ZipfIdx(A, F) for j < R[Cnt]
	OpSortVec   // sort V[Vec] ascending
	OpSeqVec    // V[Vec][j] = (R[Src] + A + j) % Ring for j < R[Cnt]

	// Inline host-counter update (workload verification tallies; no
	// simulated time, mirrors the interpreted atomic.Int64.Add).
	OpCounterAdd // Counters[Aux] += R[Src] (or A when Src == NoReg)

	// Dispatching memory ops. Effective address: Base when Src == NoReg,
	// else Base + (R[Src] mod Ring)*Stride (Ring 0 = no wrap).
	OpLoad     // R[Dst] = mem[ea]
	OpStore    // mem[ea] = R[Src2] (or A when Src2 == NoReg)
	OpExchange // R[Dst] = swap(ea, val)
	OpFetchAdd // R[Dst] = fetch-add(ea, val); Esc runs it as an escape action

	// Dispatching loops: one request per iteration j in [0, count).
	// OpForLoad/OpForStore index (R[Src] + A + j) % Ring with count
	// R[Cnt]; the vector forms walk V[Vec] with count len(V[Vec]).
	OpForLoad      // load Base + idx*Stride
	OpForStore     // store R[Src2] (+ j when AddJ) at Base + idx*Stride
	OpForLoadV     // load Base + V[Vec][j]*Stride
	OpForFetchAddV // fetch-add A at Base + V[Vec][j]*Stride

	// Dispatching transaction and thread ops.
	OpCompute  // burn R[Src] (or A) cycles; 0 is an inline no-op
	OpBegin    // begin a transaction (open nesting when Open)
	OpCommit   // commit the innermost transaction
	OpWorkUnit // tally one unit of work
	OpBarrier  // wait on Barriers[Aux]

	// Dispatching lock ops (the spinlock baseline, compiled; its test
	// reference is spinLock in internal/workload/spinlock_test.go).
	// OpLockAcq runs the full test-and-test-and-set spin with randomized
	// exponential backoff at ea; the vector forms acquire every index in
	// V[Vec] in sorted deduplicated order and release in reverse.
	OpLockAcq
	OpLockRel
	OpLockAcqVec
	OpLockRelVec

	OpDone // retire the thread

	numCodes // sentinel for validation
)

var codeNames = [numCodes]string{
	OpSet: "set", OpMov: "mov", OpAddI: "addi", OpAdd: "add",
	OpMulI: "muli", OpDivI: "divi", OpModI: "modi", OpMinI: "mini",
	OpJmp: "jmp", OpJz: "jz", OpJnz: "jnz", OpJltI: "jlti", OpJgeI: "jgei",
	OpRandInt: "rand", OpRandFlag: "flag", OpDrawCount: "drawn",
	OpZipf: "zipf", OpZipfVec: "zipfv", OpSortVec: "sortv", OpSeqVec: "seqv",
	OpCounterAdd: "ctradd",
	OpLoad:       "load", OpStore: "store", OpExchange: "xchg", OpFetchAdd: "fadd",
	OpForLoad: "forload", OpForStore: "forstore",
	OpForLoadV: "forloadv", OpForFetchAddV: "forfaddv",
	OpCompute: "compute", OpBegin: "begin", OpCommit: "commit",
	OpWorkUnit: "workunit", OpBarrier: "barrier",
	OpLockAcq: "lockacq", OpLockRel: "lockrel",
	OpLockAcqVec: "lockacqv", OpLockRelVec: "lockrelv",
	OpDone: "done",
}

func (c Code) String() string {
	if int(c) < len(codeNames) && codeNames[c] != "" {
		return codeNames[c]
	}
	return "op?"
}

// Machine geometry.
const (
	// NoReg marks an unused register operand (result discarded, operand
	// absent).
	NoReg = 0xFF
	// NumRegs is the scalar register file size.
	NumRegs = 16
	// NumVecs is the vector register count (index lists for set draws
	// and lock acquisition orders).
	NumVecs = 2
	// MaxVecLen bounds a vector register's length (the largest drawn
	// set across the workloads is BerkeleyDB's 27).
	MaxVecLen = 64
	// MaxDepth bounds transaction nesting in a tape (frame table size).
	MaxDepth = 8
)

// Instr is one tape instruction. Field meanings depend on Code (see the
// opcode comments); unused fields are zero.
type Instr struct {
	Code Code
	Dst  uint8 // result register, NoReg to discard
	Src  uint8 // index/source register
	Src2 uint8 // value/second source register
	Cnt  uint8 // count register (loops, vector fills)
	Vec  uint8 // vector register
	Esc  bool  // OpFetchAdd: escape action
	Open bool  // OpBegin: open nesting
	AddJ bool  // OpForStore: add loop index to the stored value

	Tgt int32 // jump target pc
	Aux int32 // counter/barrier table index

	Base   addr.VAddr // base virtual address
	Stride int64      // bytes per index step
	Ring   int64      // index modulus (0 = no wrap)
	A      int64      // integer immediate
	F      float64    // float immediate (probability, mean, skew)
}

// Program is one thread's compiled tape plus the host objects it
// references. Counters and Barriers are shared across the threads of a
// workload instance (the same *atomic.Int64 / *core.Barrier the
// interpreted closures capture).
type Program struct {
	Name     string
	Ops      []Instr
	Counters []*atomic.Int64
	Barriers []*core.Barrier
}
