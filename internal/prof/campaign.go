package prof

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"logtmse/internal/obs"
)

// Campaign is the live telemetry of one running sweep: cells done,
// cached and in flight, plus commit/abort totals, all atomically
// updated by worker goroutines and exposed over HTTP as
// Prometheus-format /metrics and JSON /progress, so a long chaos,
// difftest or figure4 campaign is queryable while it runs.
//
// The campaign counters are deliberately decoupled from the live
// simulation state: Registry counter funcs bound to a running System
// are single-goroutine, so the HTTP handlers read only these atomics.
type Campaign struct {
	Name  string
	total atomic.Int64

	done     atomic.Int64
	inFlight atomic.Int64

	commits atomic.Uint64
	aborts  atomic.Uint64
	stalls  atomic.Uint64
	fails   atomic.Int64

	abortCauses [8]atomic.Uint64

	start time.Time

	// CacheStats, if set, supplies (hits, misses) of the result cache
	// for the cells-cached metric; it must be safe to call concurrently.
	CacheStats func() (hits, misses uint64)
}

// NewCampaign returns live telemetry for a sweep of total cells.
func NewCampaign(name string, total int) *Campaign {
	c := &Campaign{Name: name, start: time.Now()}
	c.total.Store(int64(total))
	return c
}

// StartCell marks one cell in flight.
func (c *Campaign) StartCell() { c.inFlight.Add(1) }

// DoneCell marks one cell finished.
func (c *Campaign) DoneCell() {
	c.inFlight.Add(-1)
	c.done.Add(1)
}

// FailCell records an oracle failure, divergence or run error.
func (c *Campaign) FailCell() { c.fails.Add(1) }

// Hooks returns begin/end callbacks in the shape sweep.MapNotify
// expects, marking cells in flight and done.
func (c *Campaign) Hooks() (begin, end func(i int)) {
	return func(int) { c.StartCell() }, func(int) { c.DoneCell() }
}

// RecordRun folds one finished run's headline counters in.
func (c *Campaign) RecordRun(commits, aborts, stalls uint64) {
	c.commits.Add(commits)
	c.aborts.Add(aborts)
	c.stalls.Add(stalls)
}

// AddAbortCause attributes one abort to its cause (fed by a per-cell
// counting sink; see CountAborts).
func (c *Campaign) AddAbortCause(cause obs.AbortCause) {
	if int(cause) < len(c.abortCauses) {
		c.abortCauses[cause].Add(1)
	}
}

// CountAborts returns a per-cell sink that attributes abort events to
// the campaign's per-cause totals. Safe to attach to concurrently
// running cells (the campaign counters are atomic).
func (c *Campaign) CountAborts() obs.Sink {
	return obs.FuncSink(func(e obs.Event) {
		if e.Kind == obs.KindTxAbort {
			c.AddAbortCause(e.Cause)
		}
	})
}

// progress is the JSON document served at /progress.
type progress struct {
	Name        string            `json:"name"`
	Total       int64             `json:"cells_total"`
	Done        int64             `json:"cells_done"`
	Cached      uint64            `json:"cells_cached"`
	InFlight    int64             `json:"cells_in_flight"`
	Failed      int64             `json:"cells_failed"`
	Commits     uint64            `json:"commits"`
	Aborts      uint64            `json:"aborts"`
	Stalls      uint64            `json:"stalls"`
	AbortCauses map[string]uint64 `json:"abort_causes,omitempty"`
	ElapsedSec  float64           `json:"elapsed_seconds"`
}

func (c *Campaign) snapshot() progress {
	p := progress{
		Name:       c.Name,
		Total:      c.total.Load(),
		Done:       c.done.Load(),
		InFlight:   c.inFlight.Load(),
		Failed:     c.fails.Load(),
		Commits:    c.commits.Load(),
		Aborts:     c.aborts.Load(),
		Stalls:     c.stalls.Load(),
		ElapsedSec: time.Since(c.start).Seconds(),
	}
	if c.CacheStats != nil {
		hits, _ := c.CacheStats()
		p.Cached = hits
	}
	causes := make(map[string]uint64)
	for i := range c.abortCauses {
		if n := c.abortCauses[i].Load(); n > 0 {
			causes[obs.AbortCause(i).String()] = n
		}
	}
	if len(causes) > 0 {
		p.AbortCauses = causes
	}
	return p
}

// WriteMetrics writes the Prometheus text exposition of the campaign.
func (c *Campaign) WriteMetrics(w io.Writer) {
	p := c.snapshot()
	counter := func(name string, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	fmt.Fprintf(w, "# HELP logtmse_cells_total cells in the sweep\n# TYPE logtmse_cells_total gauge\nlogtmse_cells_total %d\n", p.Total)
	counter("logtmse_cells_done", "cells finished", uint64(p.Done))
	counter("logtmse_cells_cached", "cells served from the result cache", p.Cached)
	fmt.Fprintf(w, "# HELP logtmse_cells_in_flight cells currently simulating\n# TYPE logtmse_cells_in_flight gauge\nlogtmse_cells_in_flight %d\n", p.InFlight)
	counter("logtmse_cells_failed", "cells with an oracle failure or divergence", uint64(p.Failed))
	counter("logtmse_commits_total", "outermost transaction commits", p.Commits)
	counter("logtmse_aborts_total", "transaction aborts", p.Aborts)
	counter("logtmse_stalls_total", "NACKed transactional requests", p.Stalls)
	fmt.Fprintf(w, "# HELP logtmse_aborts_by_cause_total aborts split by cause\n# TYPE logtmse_aborts_by_cause_total counter\n")
	for i := range c.abortCauses {
		if n := c.abortCauses[i].Load(); n > 0 {
			fmt.Fprintf(w, "logtmse_aborts_by_cause_total{cause=%q} %d\n", obs.AbortCause(i).String(), n)
		}
	}
}

// Handler serves /metrics (Prometheus text format) and /progress
// (JSON).
func (c *Campaign) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		c.WriteMetrics(w)
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(c.snapshot())
	})
	return mux
}

// Serve exposes the campaign on addr (e.g. ":9464" or "127.0.0.1:0")
// until stop is called. It returns the bound address — with ":0" the
// kernel picks a free port — so callers can log or scrape it. stop
// shuts down gracefully: in-flight scrapes get up to two seconds to
// finish before connections are torn down.
func Serve(addrStr string, c *Campaign) (bound string, stop func(), err error) {
	ln, err := net.Listen("tcp", addrStr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: c.Handler()}
	go srv.Serve(ln)
	stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if srv.Shutdown(ctx) != nil {
			srv.Close()
		}
	}
	return ln.Addr().String(), stop, nil
}
