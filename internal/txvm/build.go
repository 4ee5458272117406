package txvm

import (
	"fmt"
	"sync/atomic"

	"logtmse/internal/addr"
	"logtmse/internal/core"
)

// Builder assembles a Program with symbolic labels for forward jumps.
// The emit helpers mirror the opcode set; Build resolves fixups and
// validates the result.
type Builder struct {
	ops      []Instr
	counters []*atomic.Int64
	barriers []*core.Barrier
	labels   map[string]int32
	fixups   map[int][]string // op index -> label (for Tgt patching)
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{
		labels: make(map[string]int32),
		fixups: make(map[int][]string),
	}
}

func (b *Builder) emit(i Instr) {
	b.ops = append(b.ops, i)
}

// Label binds name to the next emitted instruction.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		panic("txvm: duplicate label " + name)
	}
	b.labels[name] = int32(len(b.ops))
}

func (b *Builder) jump(code Code, src uint8, a int64, label string) {
	b.fixups[len(b.ops)] = append(b.fixups[len(b.ops)], label)
	b.emit(Instr{Code: code, Src: src, A: a, Tgt: -1})
}

// Counter interns a shared tally and returns its table index.
func (b *Builder) Counter(c *atomic.Int64) int32 {
	for i, have := range b.counters {
		if have == c {
			return int32(i)
		}
	}
	b.counters = append(b.counters, c)
	return int32(len(b.counters) - 1)
}

// Barrier interns a shared barrier and returns its table index.
func (b *Builder) Barrier(bar *core.Barrier) int32 {
	for i, have := range b.barriers {
		if have == bar {
			return int32(i)
		}
	}
	b.barriers = append(b.barriers, bar)
	return int32(len(b.barriers) - 1)
}

// --- inline ops ---------------------------------------------------------------

// Set emits R[dst] = v.
func (b *Builder) Set(dst uint8, v int64) { b.emit(Instr{Code: OpSet, Dst: dst, A: v}) }

// Mov emits R[dst] = R[src].
func (b *Builder) Mov(dst, src uint8) { b.emit(Instr{Code: OpMov, Dst: dst, Src: src}) }

// AddI emits R[dst] = R[src] + v.
func (b *Builder) AddI(dst, src uint8, v int64) {
	b.emit(Instr{Code: OpAddI, Dst: dst, Src: src, A: v})
}

// Add emits R[dst] = R[src] + R[src2].
func (b *Builder) Add(dst, src, src2 uint8) {
	b.emit(Instr{Code: OpAdd, Dst: dst, Src: src, Src2: src2})
}

// MulI emits R[dst] = R[src] * v.
func (b *Builder) MulI(dst, src uint8, v int64) {
	b.emit(Instr{Code: OpMulI, Dst: dst, Src: src, A: v})
}

// DivI emits R[dst] = R[src] / v.
func (b *Builder) DivI(dst, src uint8, v int64) {
	b.emit(Instr{Code: OpDivI, Dst: dst, Src: src, A: v})
}

// ModI emits R[dst] = R[src] % v.
func (b *Builder) ModI(dst, src uint8, v int64) {
	b.emit(Instr{Code: OpModI, Dst: dst, Src: src, A: v})
}

// MinI emits R[dst] = min(R[src], v).
func (b *Builder) MinI(dst, src uint8, v int64) {
	b.emit(Instr{Code: OpMinI, Dst: dst, Src: src, A: v})
}

// Jmp emits an unconditional jump to label.
func (b *Builder) Jmp(label string) { b.jump(OpJmp, NoReg, 0, label) }

// Jz jumps to label when R[src] == 0.
func (b *Builder) Jz(src uint8, label string) { b.jump(OpJz, src, 0, label) }

// Jnz jumps to label when R[src] != 0.
func (b *Builder) Jnz(src uint8, label string) { b.jump(OpJnz, src, 0, label) }

// JltI jumps to label when R[src] < v.
func (b *Builder) JltI(src uint8, v int64, label string) { b.jump(OpJltI, src, v, label) }

// JgeI jumps to label when R[src] >= v.
func (b *Builder) JgeI(src uint8, v int64, label string) { b.jump(OpJgeI, src, v, label) }

// RandInt emits R[dst] = Intn(n).
func (b *Builder) RandInt(dst uint8, n int64) { b.emit(Instr{Code: OpRandInt, Dst: dst, A: n}) }

// RandFlag emits R[dst] = (Float64() < p).
func (b *Builder) RandFlag(dst uint8, p float64) { b.emit(Instr{Code: OpRandFlag, Dst: dst, F: p}) }

// DrawCount emits R[dst] = DrawCount(mean, max).
func (b *Builder) DrawCount(dst uint8, mean float64, max int64) {
	b.emit(Instr{Code: OpDrawCount, Dst: dst, F: mean, A: max})
}

// Zipf emits R[dst] = ZipfIdx(n, skew).
func (b *Builder) Zipf(dst uint8, n int64, skew float64) {
	b.emit(Instr{Code: OpZipf, Dst: dst, A: n, F: skew})
}

// ZipfVec fills V[vec][0:R[cnt]] with ZipfIdx(n, skew) draws.
func (b *Builder) ZipfVec(vec, cnt uint8, n int64, skew float64) {
	b.emit(Instr{Code: OpZipfVec, Vec: vec, Cnt: cnt, A: n, F: skew})
}

// SortVec sorts V[vec] ascending.
func (b *Builder) SortVec(vec uint8) { b.emit(Instr{Code: OpSortVec, Vec: vec}) }

// SeqVec fills V[vec][j] = (R[src] + off + j) % ring for j < R[cnt].
func (b *Builder) SeqVec(vec, src, cnt uint8, off, ring int64) {
	b.emit(Instr{Code: OpSeqVec, Vec: vec, Src: src, Cnt: cnt, A: off, Ring: ring})
}

// CounterAdd emits Counters[ctr] += R[src] (src == NoReg: += imm).
func (b *Builder) CounterAdd(c *atomic.Int64, src uint8, imm int64) {
	b.emit(Instr{Code: OpCounterAdd, Src: src, A: imm, Aux: b.Counter(c)})
}

// --- dispatching ops ----------------------------------------------------------

// Load emits R[dst] = mem[base + (R[src] % ring)*stride].
func (b *Builder) Load(dst uint8, base addr.VAddr, src uint8, stride, ring int64) {
	b.emit(Instr{Code: OpLoad, Dst: dst, Src: src, Base: base, Stride: stride, Ring: ring})
}

// Store emits mem[ea] = R[valReg].
func (b *Builder) Store(base addr.VAddr, src uint8, stride, ring int64, valReg uint8) {
	b.emit(Instr{Code: OpStore, Src: src, Src2: valReg, Base: base, Stride: stride, Ring: ring})
}

// FetchAdd emits R[dst] = fetch-add(ea, add); esc runs it escaped.
func (b *Builder) FetchAdd(dst uint8, base addr.VAddr, src uint8, stride, ring, add int64, esc bool) {
	b.emit(Instr{Code: OpFetchAdd, Dst: dst, Src: src, Src2: NoReg,
		Base: base, Stride: stride, Ring: ring, A: add, Esc: esc})
}

// Compute burns n cycles.
func (b *Builder) Compute(n int64) { b.emit(Instr{Code: OpCompute, Src: NoReg, A: n}) }

// Begin opens a transaction (open nesting when open).
func (b *Builder) Begin(open bool) { b.emit(Instr{Code: OpBegin, Open: open}) }

// Commit commits the innermost transaction.
func (b *Builder) Commit() { b.emit(Instr{Code: OpCommit}) }

// WorkUnit tallies one unit of work.
func (b *Builder) WorkUnit() { b.emit(Instr{Code: OpWorkUnit}) }

// BarrierWait waits on bar.
func (b *Builder) BarrierWait(bar *core.Barrier) {
	b.emit(Instr{Code: OpBarrier, Aux: b.Barrier(bar)})
}

// ForLoad loads base + ((R[src]+off+j) % ring)*stride for j < R[cnt].
func (b *Builder) ForLoad(base addr.VAddr, src uint8, off int64, cnt uint8, ring, stride int64) {
	b.emit(Instr{Code: OpForLoad, Src: src, Cnt: cnt, Base: base, Stride: stride, Ring: ring, A: off})
}

// ForStore stores R[valReg] (+j when addJ) at base + ((R[src]+off+j) %
// ring)*stride for j < R[cnt].
func (b *Builder) ForStore(base addr.VAddr, src uint8, off int64, cnt uint8, ring, stride int64, valReg uint8, addJ bool) {
	b.emit(Instr{Code: OpForStore, Src: src, Src2: valReg, Cnt: cnt,
		Base: base, Stride: stride, Ring: ring, A: off, AddJ: addJ})
}

// ForLoadV loads base + V[vec][j]*stride for each vector element.
func (b *Builder) ForLoadV(vec uint8, base addr.VAddr, stride int64) {
	b.emit(Instr{Code: OpForLoadV, Vec: vec, Base: base, Stride: stride})
}

// ForFetchAddV fetch-adds add at base + V[vec][j]*stride per element.
func (b *Builder) ForFetchAddV(vec uint8, base addr.VAddr, stride, add int64) {
	b.emit(Instr{Code: OpForFetchAddV, Vec: vec, Base: base, Stride: stride, A: add})
}

// LockAcq spins until the lock at base + (R[src] % ring)*BlockBytes is
// acquired (src == NoReg: the lock at base).
func (b *Builder) LockAcq(base addr.VAddr, src uint8, ring int64) {
	b.emit(Instr{Code: OpLockAcq, Src: src, Base: base, Stride: int64(addr.BlockBytes), Ring: ring})
}

// LockRel releases the lock at the same address form as LockAcq.
func (b *Builder) LockRel(base addr.VAddr, src uint8, ring int64) {
	b.emit(Instr{Code: OpLockRel, Src: src, Src2: NoReg, Base: base, Stride: int64(addr.BlockBytes), Ring: ring})
}

// LockAcqVec acquires the locks indexed by V[vec] in sorted
// deduplicated order (the workload test reference lockTable.WithAll).
func (b *Builder) LockAcqVec(vec uint8, base addr.VAddr, ring int64) {
	b.emit(Instr{Code: OpLockAcqVec, Vec: vec, Base: base, Stride: int64(addr.BlockBytes), Ring: ring})
}

// LockRelVec releases the LockAcqVec set in reverse order.
func (b *Builder) LockRelVec(vec uint8, base addr.VAddr, ring int64) {
	b.emit(Instr{Code: OpLockRelVec, Vec: vec, Base: base, Stride: int64(addr.BlockBytes), Ring: ring})
}

// Done retires the thread.
func (b *Builder) Done() { b.emit(Instr{Code: OpDone}) }

// Build resolves labels and returns the validated Program.
func (b *Builder) Build(name string) (*Program, error) {
	for idx, labels := range b.fixups {
		for _, l := range labels {
			tgt, ok := b.labels[l]
			if !ok {
				return nil, fmt.Errorf("txvm: %s: undefined label %q", name, l)
			}
			b.ops[idx].Tgt = tgt
		}
	}
	p := &Program{Name: name, Ops: b.ops, Counters: b.counters, Barriers: b.barriers}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build, panicking on error (compilers with fixed shapes).
func (b *Builder) MustBuild(name string) *Program {
	p, err := b.Build(name)
	if err != nil {
		panic(err)
	}
	return p
}
