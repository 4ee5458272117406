package coherence

import (
	"logtmse/internal/cache"
	"logtmse/internal/ptable"
)

// Snapshot is a restorable capture of the memory system's dynamic state:
// cache tag arrays, the directory (copy-on-write page sharing), protocol
// and protocol statistics. The interconnect and banks model no queues,
// so there is no timing state beyond these to capture. Configuration
// (geometry, latencies, protocol, hooks) is not captured — a restore
// target must be built with the same Params, which the fork path
// guarantees by respawning the cell from its RunConfig.
type Snapshot struct {
	l1    []*cache.Snapshot
	l2    *cache.Snapshot
	dir   ptable.Table[dirEntry]
	stats Stats
}

// Snapshot captures the memory system's dynamic state. The directory is
// shared copy-on-write, so the capture is cheap even with a large
// working set.
func (s *System) Snapshot() *Snapshot {
	snap := &Snapshot{
		l2:    s.l2.Snapshot(),
		dir:   s.dir.Snapshot(),
		stats: s.stats,
	}
	for _, c := range s.l1 {
		snap.l1 = append(snap.l1, c.Snapshot())
	}
	return snap
}

// RestoreFrom overwrites the memory system's dynamic state from a
// capture taken on a system of identical configuration. The snapshot is
// never mutated and can seed any number of restores.
func (s *System) RestoreFrom(snap *Snapshot) error {
	for i, c := range s.l1 {
		if err := c.Restore(snap.l1[i]); err != nil {
			return err
		}
	}
	if err := s.l2.Restore(snap.l2); err != nil {
		return err
	}
	s.dir.RestoreFrom(&snap.dir)
	s.stats = snap.stats
	s.epoch++
	return nil
}
