package logtmse

// Attribution surface: the library re-exports the internal/prof types
// so downstream users can attach the conflict-attribution profiler,
// the flight recorder and campaign telemetry without importing
// internal packages. See DESIGN.md §11.

import "logtmse/internal/prof"

// Re-exported attribution and telemetry types.
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
	// FlightRecorder keeps bounded per-core rings of recent lifecycle
	// events for postmortems (RunConfig.Flight).
	FlightRecorder = prof.FlightRecorder
	// Campaign is the live telemetry of one running sweep, served as
	// Prometheus /metrics and JSON /progress.
	Campaign = prof.Campaign
)

// NewProfiler returns an empty conflict-attribution profiler.
func NewProfiler() *Profiler { return prof.New() }

// NewFlightRecorder returns a recorder with perCore event slots for
// each of cores rings plus one protocol ring (perCore <= 0 → 256).
func NewFlightRecorder(cores, perCore int) *FlightRecorder {
	return prof.NewFlightRecorder(cores, perCore)
}

// NewCampaign returns live telemetry for a sweep of total cells.
func NewCampaign(name string, total int) *Campaign { return prof.NewCampaign(name, total) }

// ServeCampaign exposes the campaign's /metrics and /progress on addr
// until stop is called, returning the bound address.
func ServeCampaign(addr string, c *Campaign) (bound string, stop func(), err error) {
	return prof.Serve(addr, c)
}
