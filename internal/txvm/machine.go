package txvm

import (
	"fmt"

	"logtmse/internal/addr"
	"logtmse/internal/core"
	"logtmse/internal/sim"
)

// Machine executes one Program on one stepped thread. Exactly one
// simulated request is in flight at a time; the response event calls
// step, which consumes the response, runs inline ops, and issues the
// next request before the event returns.
type Machine struct {
	sys *core.System
	t   *core.Thread
	p   *Program

	pc       int
	inflight bool
	regs     [NumRegs]int64
	vecs     [NumVecs][]int64
	vlen     [NumVecs]int

	// frame[d] is the pc of the OpBegin that opened depth d. An abort
	// response unwinding to depth d resumes at frame[d+1], replaying
	// the surviving transaction's body from its begin — the same
	// re-execution the interpreted retry loop performs.
	frame [MaxDepth + 1]int32

	// vi is the loop index of an in-progress OpFor* instruction.
	vi int64

	// Spinlock engine state (OpLockAcq / OpLockAcqVec). The spin
	// replicates the workload test reference spinLock.Acquire exactly:
	// test with a load, test-and-set with an exchange, randomized
	// exponential backoff (fresh base 8 per acquisition, doubling to a
	// 1024 cap) drawn from the thread RNG.
	spin     uint8
	backoff  int64
	spinAddr addr.VAddr
	lockSet  [MaxVecLen]int64
	lockN    int
	lockI    int
}

const (
	spinIdle = iota
	spinLoad // awaiting the test load
	spinXchg // awaiting the test-and-set exchange
	spinWait // awaiting the backoff compute; re-test next
)

// Attach binds a compiled program to a stepped thread. The caller then
// places and starts the thread as usual (core.System.Place/Start).
func Attach(sys *core.System, t *core.Thread, p *Program) *Machine {
	m := &Machine{sys: sys, t: t, p: p}
	for i := range m.vecs {
		m.vecs[i] = make([]int64, MaxVecLen)
	}
	t.BindStep(m.step)
	return m
}

// step is the thread's StepFunc: it consumes one response (the zero
// OpResult on the initial start step) and advances the tape to its next
// request.
func (m *Machine) step(res core.OpResult) {
	if m.inflight {
		m.inflight = false
		if res.Abort {
			// The engine unwound the log and signature state to
			// res.ToDepth; resume at the begin of the deepest surviving
			// transaction attempt and replay its body.
			m.pc = int(m.frame[res.ToDepth+1])
			m.vi = 0
			m.spin = spinIdle
			m.run()
			return
		}
		if !m.consume(res) {
			return // instruction continues; its next request is in flight
		}
		m.pc++
	}
	m.run()
}

// consume delivers a non-abort response to the in-progress instruction.
// It returns true when the instruction has completed (pc may advance)
// and false when it issued a follow-up request.
func (m *Machine) consume(res core.OpResult) bool {
	op := &m.p.Ops[m.pc]
	switch op.Code {
	case OpLoad, OpExchange, OpFetchAdd:
		if op.Dst != NoReg {
			m.regs[op.Dst] = int64(res.Val)
		}
		return true
	case OpStore, OpCompute, OpBegin, OpCommit, OpWorkUnit, OpBarrier, OpLockRel:
		if op.Code == OpBegin {
			m.frame[res.Depth] = int32(m.pc)
		}
		return true
	case OpForLoad, OpForStore, OpForLoadV, OpForFetchAddV:
		m.vi++
		if m.vi < m.forCount(op) {
			m.issueFor(op)
			return false
		}
		return true
	case OpLockAcq, OpLockAcqVec:
		return m.spinStep(op, res)
	case OpLockRelVec:
		m.lockI--
		if m.lockI >= 0 {
			m.issueStore(m.lockAddr(op, m.lockSet[m.lockI]), 0)
			return false
		}
		return true
	}
	panic(fmt.Sprintf("txvm: %s: response for non-dispatching op %v at pc %d", m.p.Name, op.Code, m.pc))
}

// run executes inline ops until the tape issues its next request (or
// retires the thread).
func (m *Machine) run() {
	ops := m.p.Ops
	for {
		op := &ops[m.pc]
		switch op.Code {
		case OpSet:
			m.regs[op.Dst] = op.A
		case OpMov:
			m.regs[op.Dst] = m.regs[op.Src]
		case OpAddI:
			m.regs[op.Dst] = m.regs[op.Src] + op.A
		case OpAdd:
			m.regs[op.Dst] = m.regs[op.Src] + m.regs[op.Src2]
		case OpMulI:
			m.regs[op.Dst] = m.regs[op.Src] * op.A
		case OpDivI:
			m.regs[op.Dst] = m.regs[op.Src] / op.A
		case OpModI:
			m.regs[op.Dst] = m.regs[op.Src] % op.A
		case OpMinI:
			if v := m.regs[op.Src]; v < op.A {
				m.regs[op.Dst] = v
			} else {
				m.regs[op.Dst] = op.A
			}

		case OpJmp:
			m.pc = int(op.Tgt)
			continue
		case OpJz:
			if m.regs[op.Src] == 0 {
				m.pc = int(op.Tgt)
				continue
			}
		case OpJnz:
			if m.regs[op.Src] != 0 {
				m.pc = int(op.Tgt)
				continue
			}
		case OpJltI:
			if m.regs[op.Src] < op.A {
				m.pc = int(op.Tgt)
				continue
			}
		case OpJgeI:
			if m.regs[op.Src] >= op.A {
				m.pc = int(op.Tgt)
				continue
			}

		case OpRandInt:
			m.regs[op.Dst] = int64(m.t.Rand().Intn(int(op.A)))
		case OpRandFlag:
			if m.t.Rand().Float64() < op.F {
				m.regs[op.Dst] = 1
			} else {
				m.regs[op.Dst] = 0
			}
		case OpDrawCount:
			m.regs[op.Dst] = int64(DrawCount(m.t.Rand(), op.F, int(op.A)))
		case OpZipf:
			m.regs[op.Dst] = int64(ZipfIdx(m.t.Rand(), int(op.A), op.F))
		case OpZipfVec:
			n := int(m.regs[op.Cnt])
			v := m.vecs[op.Vec]
			for j := 0; j < n; j++ {
				v[j] = int64(ZipfIdx(m.t.Rand(), int(op.A), op.F))
			}
			m.vlen[op.Vec] = n
		case OpSortVec:
			v := m.vecs[op.Vec][:m.vlen[op.Vec]]
			for i := 1; i < len(v); i++ {
				for j := i; j > 0 && v[j] < v[j-1]; j-- {
					v[j], v[j-1] = v[j-1], v[j]
				}
			}
		case OpSeqVec:
			n := int(m.regs[op.Cnt])
			v := m.vecs[op.Vec]
			for j := 0; j < n; j++ {
				v[j] = (m.regs[op.Src] + op.A + int64(j)) % op.Ring
			}
			m.vlen[op.Vec] = n

		case OpCounterAdd:
			d := op.A
			if op.Src != NoReg {
				d = m.regs[op.Src]
			}
			m.p.Counters[op.Aux].Add(d)

		case OpLoad:
			m.inflight = true
			m.sys.IssueLoad(m.t, m.ea(op))
			return
		case OpStore:
			m.issueStore(m.ea(op), m.val(op))
			return
		case OpExchange:
			m.inflight = true
			m.sys.IssueExchange(m.t, m.ea(op), m.val(op))
			return
		case OpFetchAdd:
			m.inflight = true
			m.sys.IssueFetchAdd(m.t, m.ea(op), m.val(op), op.Esc)
			return

		case OpForLoad, OpForStore, OpForLoadV, OpForFetchAddV:
			if m.forCount(op) > 0 {
				m.vi = 0
				m.issueFor(op)
				return
			}
			// Zero iterations: no request, fall through inline (the
			// interpreted loop body never runs either).

		case OpCompute:
			n := op.A
			if op.Src != NoReg {
				n = m.regs[op.Src]
			}
			if n > 0 {
				m.inflight = true
				m.sys.IssueCompute(m.t, sim.Cycle(n))
				return
			}
			// Compute(0) is a no-op on the interpreted path too.

		case OpBegin:
			m.inflight = true
			m.sys.IssueBegin(m.t, op.Open)
			return
		case OpCommit:
			m.inflight = true
			m.sys.IssueCommit(m.t)
			return
		case OpWorkUnit:
			m.inflight = true
			m.sys.IssueWorkUnit(m.t)
			return
		case OpBarrier:
			m.inflight = true
			m.sys.IssueBarrier(m.t, m.p.Barriers[op.Aux])
			return

		case OpLockAcq:
			m.startSpin(m.ea(op))
			return
		case OpLockAcqVec:
			m.buildLockSet(op)
			m.lockI = 0
			m.startSpin(m.lockAddr(op, m.lockSet[0]))
			return
		case OpLockRel:
			m.issueStore(m.ea(op), 0)
			return
		case OpLockRelVec:
			m.lockI = m.lockN - 1
			m.issueStore(m.lockAddr(op, m.lockSet[m.lockI]), 0)
			return

		case OpDone:
			m.sys.IssueDone(m.t)
			return

		default:
			panic(fmt.Sprintf("txvm: %s: bad opcode %d at pc %d", m.p.Name, op.Code, m.pc))
		}
		m.pc++
	}
}

// ea computes a dispatching op's effective address.
func (m *Machine) ea(op *Instr) addr.VAddr {
	if op.Src == NoReg {
		return op.Base
	}
	i := m.regs[op.Src]
	if op.Ring > 0 {
		i %= op.Ring
	}
	return op.Base + addr.VAddr(i)*addr.VAddr(op.Stride)
}

// val computes a store/exchange/fetch-add operand value.
func (m *Machine) val(op *Instr) uint64 {
	if op.Src2 != NoReg {
		return uint64(m.regs[op.Src2])
	}
	return uint64(op.A)
}

func (m *Machine) issueStore(va addr.VAddr, v uint64) {
	m.inflight = true
	m.sys.IssueStore(m.t, va, v)
}

// forCount is the iteration count of an OpFor* instruction.
func (m *Machine) forCount(op *Instr) int64 {
	switch op.Code {
	case OpForLoadV, OpForFetchAddV:
		return int64(m.vlen[op.Vec])
	default:
		return m.regs[op.Cnt]
	}
}

// issueFor issues iteration m.vi of an OpFor* instruction.
func (m *Machine) issueFor(op *Instr) {
	var va addr.VAddr
	switch op.Code {
	case OpForLoadV, OpForFetchAddV:
		va = op.Base + addr.VAddr(m.vecs[op.Vec][m.vi])*addr.VAddr(op.Stride)
	default:
		i := m.regs[op.Src] + op.A + m.vi
		if op.Ring > 0 {
			i %= op.Ring
		}
		va = op.Base + addr.VAddr(i)*addr.VAddr(op.Stride)
	}
	m.inflight = true
	switch op.Code {
	case OpForLoad, OpForLoadV:
		m.sys.IssueLoad(m.t, va)
	case OpForStore:
		v := uint64(m.regs[op.Src2])
		if op.AddJ {
			v += uint64(m.vi)
		}
		m.sys.IssueStore(m.t, va, v)
	case OpForFetchAddV:
		m.sys.IssueFetchAdd(m.t, va, uint64(op.A), false)
	}
}

// lockAddr is the spinlock address for table index i (the workload test
// reference lockTable's base.Block() + (i mod n)*BlockBytes layout; the
// compiler encodes the table length in Ring and the block size in
// Stride).
func (m *Machine) lockAddr(op *Instr, i int64) addr.VAddr {
	if op.Ring > 0 {
		i %= op.Ring
	}
	return op.Base + addr.VAddr(i)*addr.VAddr(op.Stride)
}

// buildLockSet copies V[Vec] and sorts/deduplicates it — the deadlock-
// avoidance acquisition order of the workload test reference
// lockTable.WithAll.
func (m *Machine) buildLockSet(op *Instr) {
	n := m.vlen[op.Vec]
	copy(m.lockSet[:n], m.vecs[op.Vec][:n])
	s := m.lockSet[:n]
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	m.lockN = 0
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			m.lockSet[m.lockN] = v
			m.lockN++
		}
	}
}

// startSpin begins one spinlock acquisition at va with a fresh backoff.
func (m *Machine) startSpin(va addr.VAddr) {
	m.spinAddr = va
	m.backoff = 8
	m.spin = spinLoad
	m.inflight = true
	m.sys.IssueLoad(m.t, va)
}

// spinStep consumes one response of an in-progress lock acquisition;
// true means the OpLockAcq/OpLockAcqVec instruction completed.
func (m *Machine) spinStep(op *Instr, res core.OpResult) bool {
	switch m.spin {
	case spinLoad:
		if res.Val != 0 {
			m.spinBackoff()
			return false
		}
		m.spin = spinXchg
		m.inflight = true
		m.sys.IssueExchange(m.t, m.spinAddr, 1)
		return false
	case spinXchg:
		if res.Val != 0 {
			m.spinBackoff()
			return false
		}
		// Acquired.
		if op.Code == OpLockAcqVec {
			m.lockI++
			if m.lockI < m.lockN {
				m.startSpin(m.lockAddr(op, m.lockSet[m.lockI]))
				return false
			}
		}
		m.spin = spinIdle
		return true
	case spinWait:
		m.spin = spinLoad
		m.inflight = true
		m.sys.IssueLoad(m.t, m.spinAddr)
		return false
	}
	panic("txvm: spin response with no spin in progress")
}

// spinBackoff issues the randomized-exponential-backoff compute of a
// failed test or test-and-set, doubling the backoff as
// the workload test reference spinLock.Acquire does (draw before
// doubling, cap at 1024).
func (m *Machine) spinBackoff() {
	d := m.backoff + m.t.Rand().Int63n(m.backoff)
	if m.backoff < 1024 {
		m.backoff *= 2
	}
	m.spin = spinWait
	m.inflight = true
	m.sys.IssueCompute(m.t, sim.Cycle(d))
}
