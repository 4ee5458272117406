package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Host is the host-noise part of every result: what else the machine was
// doing, so a noisy set reads as noise rather than as a regression.
type Host struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	LoadAvg1   float64 `json:"loadavg_1m_at_start"`
	// StealTicks is the /proc/stat steal-time delta over the run, in
	// USER_HZ ticks summed over all CPUs (-1 when unreadable).
	StealTicks int64 `json:"steal_ticks"`
	stealStart int64
}

func startHost() Host {
	h := Host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		StealTicks: -1,
		stealStart: stealTicks(),
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			h.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return h
}

func (h *Host) finish() {
	if end := stealTicks(); h.stealStart >= 0 && end >= 0 {
		h.StealTicks = end - h.stealStart
	}
}

// stealTicks reads the aggregate steal column of /proc/stat (-1 when
// unreadable).
func stealTicks() int64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return -1
	}
	// cpu user nice system idle iowait irq softirq steal ...
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// resetPeakRSS restarts the kernel's peak-resident-set accounting
// (VmHWM), so that peakRSSMB covers only what follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) != 2 || fields[1] != "kB" {
				break
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
