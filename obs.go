package logtmse

// Observability surface: the library re-exports the internal/obs types
// so downstream users can attach sinks without importing
// internal packages. See the "Observability" section of DESIGN.md.

import (
	"io"

	"logtmse/internal/obs"
)

// Re-exported observability types.
type (
	// Sink receives the structured lifecycle event stream.
	Sink = obs.Sink
	// Event is one lifecycle event (value type; emission is
	// allocation-free).
	Event = obs.Event
	// EventKind enumerates the lifecycle events.
	EventKind = obs.Kind
	// AbortCause classifies EvTxAbort events.
	AbortCause = obs.AbortCause
	// Recorder is a Sink that retains every event in order.
	Recorder = obs.Recorder
	// DiscardSink drops every event; it measures the cost of the probes
	// themselves (see BenchmarkObsOverhead).
	DiscardSink = obs.Discard
	// FuncSink adapts a function to the Sink interface.
	FuncSink = obs.FuncSink
	// CatapultTrace is the Chrome trace-event JSON document, as a
	// reader decodes it.
	CatapultTrace = obs.CatapultTrace
	// CatapultWriter is a Sink that streams the event stream as a
	// Chrome trace-event JSON document; Close finishes it.
	CatapultWriter = obs.CatapultWriter
)

// Lifecycle event kinds.
const (
	EvTxBegin         = obs.KindTxBegin
	EvTxCommit        = obs.KindTxCommit
	EvTxAbort         = obs.KindTxAbort
	EvNack            = obs.KindNack
	EvStallStart      = obs.KindStallStart
	EvStallEnd        = obs.KindStallEnd
	EvLogWalkStart    = obs.KindLogWalkStart
	EvLogWalkEnd      = obs.KindLogWalkEnd
	EvSummaryConflict = obs.KindSummaryConflict
	EvStickyForward   = obs.KindStickyForward
)

// Abort causes.
const (
	AbortConflict   = obs.CauseConflict
	AbortSummary    = obs.CauseSummary
	AbortOverflow   = obs.CauseOverflow
	AbortInjected   = obs.CauseInjected
	AbortStarvation = obs.CauseStarvation
)

// EvFaultInject is one applied fault-injection action (Arg carries the
// fault class).
const EvFaultInject = obs.KindFaultInject

// Tee fans one event stream out to several sinks.
func Tee(sinks ...Sink) Sink { return obs.Tee(sinks...) }

// NewCatapultWriter returns a Sink that writes the event stream to w as
// catapult JSON (one process per core, one track per thread) while the
// run goes; Close writes the frames still open and the trailer.
func NewCatapultWriter(w io.Writer) *CatapultWriter { return obs.NewCatapultWriter(w) }

// WriteCatapult encodes the event stream as catapult JSON, loadable in
// chrome://tracing and Perfetto.
func WriteCatapult(w io.Writer, events []Event) error { return obs.WriteCatapult(w, events) }
