// Package snap captures and restores complete simulator state at
// event-queue quiescent boundaries, enabling cycle-level bisect (restore
// the nearest snapshot instead of replaying from zero) and the
// logtmsim -snap-every self-check.
//
// A snapshot bundles three layers:
//
//   - core.SystemState: engine clock/sequence/RNG plus per-thread
//     pending-event descriptors, memory and directory shared
//     copy-on-write, caches, signatures, undo logs, page tables;
//   - txvm machine states: program counters, registers, vectors,
//     transaction frames and spinlock engines of the compiled tapes;
//   - workload state: the shared verification counters and barriers.
//
// Restore targets are built by respawning the identical workload on an
// identically configured system (fresh closures, counters and barriers
// bound to the fork) and then overwriting every mutable field from the
// capture. Forked runs are bit-identical to from-scratch runs — the
// fork-equivalence tests pin this for every workload.
package snap

import (
	"fmt"

	"logtmse/internal/core"
	"logtmse/internal/sim"
	"logtmse/internal/txvm"
	"logtmse/internal/workload"
)

// Snapshot is one capture of a (system, workload instance) pair. It
// holds no pointers into the live machine and can seed any number of
// restores.
type Snapshot struct {
	Sys      *core.SystemState
	Machines []txvm.MachineState
	Counters []int64
	Cycle    sim.Cycle
}

// Capture captures the pair at a quiescent boundary (between events —
// after RunUntil returns, before the next Run). It fails with
// core.ErrNotCapturable when the state has parts that cannot be rebuilt
// on a fork (hooks attached, goroutine thread mid-run, non-baseline
// machine shape); callers fall back to running from scratch.
func Capture(sys *core.System, inst *workload.Instance) (*Snapshot, error) {
	st, err := sys.CaptureState(inst.Barriers)
	if err != nil {
		return nil, err
	}
	s := &Snapshot{Sys: st, Cycle: st.Now()}
	for _, m := range inst.Machines {
		s.Machines = append(s.Machines, m.State())
	}
	for _, c := range inst.Counters {
		s.Counters = append(s.Counters, c.Load())
	}
	return s, nil
}

// Restore overwrites a freshly spawned pair — same Params, same
// workload, same Config — with the capture, resuming the captured run
// bit-identically. The capture is not consumed.
func Restore(sys *core.System, inst *workload.Instance, s *Snapshot) error {
	if len(inst.Machines) != len(s.Machines) {
		return fmt.Errorf("snap: restore target has %d machines, capture has %d (executor mismatch?)",
			len(inst.Machines), len(s.Machines))
	}
	if len(inst.Counters) != len(s.Counters) {
		return fmt.Errorf("snap: restore target has %d counters, capture has %d", len(inst.Counters), len(s.Counters))
	}
	if err := sys.RestoreState(s.Sys, inst.Barriers); err != nil {
		return err
	}
	for i, m := range inst.Machines {
		if err := m.SetState(s.Machines[i]); err != nil {
			return err
		}
	}
	for i, c := range inst.Counters {
		c.Store(s.Counters[i])
	}
	return nil
}
