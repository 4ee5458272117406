package logtmse

// Attribution surface: the library re-exports the internal/prof types
// so downstream users can attach the conflict-attribution profiler
// without importing internal packages. See DESIGN.md §11.

import "logtmse/internal/prof"

// Re-exported attribution types.
type (
	// Profiler attributes conflicts from the lifecycle event stream:
	// per-address heatmaps, Bloom false-positive partition, blame
	// graphs, wasted-work accounting. It is a Sink: attach it as
	// RunConfig.Sink (or Tee it with other sinks).
	Profiler = prof.Profiler
	// Attribution partitions every signature-positive NACK into
	// {true conflict, Bloom alias, sticky carryover} plus the
	// summary-signature hits.
	Attribution = prof.Attribution
	// BlockStat is the per-block conflict heatmap entry.
	BlockStat = prof.BlockStat
	// BlameEdge is one waits-for edge (From stalled on To).
	BlameEdge = prof.Edge
)

// NewProfiler returns an empty conflict-attribution profiler.
func NewProfiler() *Profiler { return prof.New() }
