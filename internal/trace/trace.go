// Package trace provides trace-driven simulation support: a compact
// binary format for memory-operation traces (with transaction begin/
// commit markers, including nesting), an encoder/decoder, a synthetic
// trace generator, and a player that drives a trace through a simulated
// thread's API — re-executing transactional regions transparently when
// the hardware aborts them.
//
// Traces let users run address streams captured from real programs on
// the LogTM-SE model, the workflow architecture simulators typically
// support alongside execution-driven mode.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"logtmse/internal/addr"
	"logtmse/internal/core"
	"logtmse/internal/sim"
)

// Kind is a trace operation type.
type Kind uint8

// Operation kinds.
const (
	KindLoad Kind = iota
	KindStore
	KindFetchAdd
	KindCompute
	KindBegin     // closed transaction begin
	KindBeginOpen // open-nested transaction begin
	KindCommit
	KindWorkUnit
	kindMax
)

func (k Kind) String() string {
	switch k {
	case KindLoad:
		return "load"
	case KindStore:
		return "store"
	case KindFetchAdd:
		return "fetchadd"
	case KindCompute:
		return "compute"
	case KindBegin:
		return "begin"
	case KindBeginOpen:
		return "begin-open"
	case KindCommit:
		return "commit"
	case KindWorkUnit:
		return "workunit"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Op is one trace record.
type Op struct {
	Kind Kind
	Addr addr.VAddr // Load/Store/FetchAdd
	Val  uint64     // Store value / FetchAdd delta / Compute cycles
}

// Trace is an ordered operation stream for one thread.
type Trace struct {
	Ops []Op
}

// Append adds an operation.
func (t *Trace) Append(op Op) { t.Ops = append(t.Ops, op) }

// Load appends a load.
func (t *Trace) Load(a addr.VAddr) { t.Append(Op{Kind: KindLoad, Addr: a}) }

// Store appends a store.
func (t *Trace) Store(a addr.VAddr, v uint64) { t.Append(Op{Kind: KindStore, Addr: a, Val: v}) }

// FetchAdd appends an atomic add.
func (t *Trace) FetchAdd(a addr.VAddr, v uint64) { t.Append(Op{Kind: KindFetchAdd, Addr: a, Val: v}) }

// Compute appends n cycles of computation.
func (t *Trace) Compute(n uint64) { t.Append(Op{Kind: KindCompute, Val: n}) }

// Begin appends a closed-transaction begin.
func (t *Trace) Begin() { t.Append(Op{Kind: KindBegin}) }

// BeginOpen appends an open-nested begin.
func (t *Trace) BeginOpen() { t.Append(Op{Kind: KindBeginOpen}) }

// Commit appends a commit for the innermost open transaction marker.
func (t *Trace) Commit() { t.Append(Op{Kind: KindCommit}) }

// WorkUnit appends a unit-of-work marker.
func (t *Trace) WorkUnit() { t.Append(Op{Kind: KindWorkUnit}) }

// Validate checks that begins and commits balance and never cross.
func (t *Trace) Validate() error {
	depth := 0
	for i, op := range t.Ops {
		switch op.Kind {
		case KindBegin, KindBeginOpen:
			depth++
		case KindCommit:
			depth--
			if depth < 0 {
				return fmt.Errorf("trace: commit without begin at op %d", i)
			}
		}
		if op.Kind >= kindMax {
			return fmt.Errorf("trace: bad kind %d at op %d", op.Kind, i)
		}
	}
	if depth != 0 {
		return fmt.Errorf("trace: %d unclosed transactions", depth)
	}
	return nil
}

const magic = "LTMT\x01"

// Encode writes the trace in the compact binary format.
func (t *Trace) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	put := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := put(uint64(len(t.Ops))); err != nil {
		return err
	}
	for _, op := range t.Ops {
		if err := bw.WriteByte(byte(op.Kind)); err != nil {
			return err
		}
		switch op.Kind {
		case KindLoad:
			if err := put(uint64(op.Addr)); err != nil {
				return err
			}
		case KindStore, KindFetchAdd:
			if err := put(uint64(op.Addr)); err != nil {
				return err
			}
			if err := put(op.Val); err != nil {
				return err
			}
		case KindCompute:
			if err := put(op.Val); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Decode reads a trace previously written by Encode.
func Decode(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: bad header: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", head)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > 1<<30 {
		return nil, fmt.Errorf("trace: implausible op count %d", n)
	}
	// n is untrusted: reserve at most a modest prefix up front, so a
	// forged count fails on the missing ops instead of allocating
	// gigabytes first. append grows real traces past it.
	t := &Trace{Ops: make([]Op, 0, min(n, 1<<16))}
	for i := uint64(0); i < n; i++ {
		kb, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		op := Op{Kind: Kind(kb)}
		if op.Kind >= kindMax {
			return nil, fmt.Errorf("trace: bad kind %d at op %d", kb, i)
		}
		switch op.Kind {
		case KindLoad:
			a, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			op.Addr = addr.VAddr(a)
		case KindStore, KindFetchAdd:
			a, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			v, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			op.Addr = addr.VAddr(a)
			op.Val = v
		case KindCompute:
			v, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			op.Val = v
		}
		t.Ops = append(t.Ops, op)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Play executes the trace on a thread. Transactional regions replay
// through the engine's Transaction/OpenTransaction wrappers, so aborted
// regions re-execute exactly as an execution-driven workload would.
func Play(a *core.API, t *Trace) error {
	if err := t.Validate(); err != nil {
		return err
	}
	_, err := play(a, t.Ops)
	return err
}

// play consumes ops until (and including) the commit that closes the
// enclosing region, returning how many ops it consumed.
func play(a *core.API, ops []Op) (int, error) {
	i := 0
	for i < len(ops) {
		op := ops[i]
		switch op.Kind {
		case KindLoad:
			a.Load(op.Addr)
		case KindStore:
			a.Store(op.Addr, op.Val)
		case KindFetchAdd:
			a.FetchAdd(op.Addr, op.Val)
		case KindCompute:
			a.Compute(sim.Cycle(op.Val))
		case KindWorkUnit:
			a.WorkUnit()
		case KindCommit:
			return i + 1, nil
		case KindBegin, KindBeginOpen:
			body := ops[i+1:]
			var consumed int
			var err error
			run := func() {
				consumed, err = play(a, body)
			}
			if op.Kind == KindBegin {
				a.Transaction(run)
			} else {
				a.OpenTransaction(run)
			}
			if err != nil {
				return 0, err
			}
			i += consumed // the nested region including its commit
		}
		i++
	}
	return i, nil
}
