package main

import (
	"sync/atomic"
	"time"
)

// phaseCtl is shared by the monitor and the workers of one measured
// phase. Workers poll stop between small batches of work and record
// latency into the window the monitor currently names.
type phaseCtl struct {
	stop   atomic.Bool
	win    atomic.Int32
	traced bool
}

// progressSource is a worker as the monitor sees it.
type progressSource interface {
	completed() uint64 // ops or requests finished so far, published by the worker
	exited() bool      // the worker's goroutine has returned
}

// phaseStats is what the monitor saw in one phase.
type phaseStats struct {
	elapsed time.Duration
	ops     uint64    // completions during the phase
	rates   []float64 // completions per second, one per full window
	steal   []float64 // share of CPU time the hypervisor stole, per window
	stuck   []int     // workers that had not returned when the phase ended
}

// windowsPerPhase splits a phase into this many windows.
const windowsPerPhase = 20

// monitor runs one phase of length dur over workers that are already
// started. Every windowsPerPhase-th of the phase it records the completion
// rate and advances the latency window. If stallAfter > 0 and some worker
// completes nothing for that long, the phase ends early. tick, if non-nil,
// runs on every poll. monitor returns once every worker has exited, or
// has failed to exit within exitGrace of the stop signal.
func monitor(ph *phaseCtl, workers []progressSource, dur, stallAfter time.Duration, tick func()) phaseStats {
	const poll = 10 * time.Millisecond
	const exitGrace = 500 * time.Millisecond
	window := dur / windowsPerPhase
	start := time.Now()
	var st phaseStats
	last := make([]uint64, len(workers))
	lastChange := make([]time.Time, len(workers))
	var base uint64
	for i, w := range workers {
		last[i] = w.completed()
		lastChange[i] = start
		base += last[i]
	}
	winStart, winBase, winSteal := start, base, startSteal()
	for {
		time.Sleep(poll)
		now := time.Now()
		if tick != nil {
			tick()
		}
		var total uint64
		allExited, stalled := true, false
		for i, w := range workers {
			c := w.completed()
			total += c
			if c != last[i] {
				last[i], lastChange[i] = c, now
			}
			if !w.exited() {
				allExited = false
				if stallAfter > 0 && now.Sub(lastChange[i]) >= stallAfter {
					stalled = true
				}
			}
		}
		if now.Sub(start) >= time.Duration(len(st.rates)+1)*window {
			st.rates = append(st.rates, float64(total-winBase)/now.Sub(winStart).Seconds())
			st.steal = append(st.steal, winSteal.ratio())
			winStart, winBase, winSteal = now, total, startSteal()
			ph.win.Add(1)
		}
		if stalled || allExited || len(st.rates) == windowsPerPhase {
			break
		}
	}
	ph.stop.Store(true)
	deadline := time.Now().Add(exitGrace)
	for {
		stuck := st.stuck[:0]
		for i, w := range workers {
			if !w.exited() {
				stuck = append(stuck, i)
			}
		}
		st.stuck = stuck
		if len(stuck) == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	st.elapsed = time.Since(start)
	for _, w := range workers {
		st.ops += w.completed()
	}
	st.ops -= base
	return st
}

// rate returns the median window completion rate, or the whole-phase mean
// when the phase ended before a full window.
func (st phaseStats) rate() float64 {
	if len(st.rates) == 0 {
		return ratio(float64(st.ops), st.elapsed.Seconds())
	}
	return median(st.rates)
}

// window is one window's figures: its completion rate, the p50 and p99
// of the latencies sampled in it (ns), their count, and the share of CPU
// time the hypervisor stole.
type window struct {
	rate, p50, p99, steal float64
	n                     uint64
}

// windows pairs the phase's windows with the workers' per-window latency
// histograms.
func (st phaseStats) windows(perWorker [][]*hist) []window {
	ws := make([]window, len(st.rates))
	for i := range ws {
		var h hist
		for _, hs := range perWorker {
			if i < len(hs) {
				h.merge(hs[i])
			}
		}
		ws[i] = window{rate: st.rates[i], p50: h.quantile(0.50), p99: h.quantile(0.99), steal: st.steal[i], n: h.n}
	}
	return ws
}

// windowMedians returns the median window rate and the medians of the
// windows' p50 and p99 (ns) over windows with latency samples, with
// their sample count.
func windowMedians(ws []window) (rate, p50, p99 float64, n uint64) {
	var rs, a, b []float64
	for _, w := range ws {
		rs = append(rs, w.rate)
		if w.n > 0 {
			a = append(a, w.p50)
			b = append(b, w.p99)
			n += w.n
		}
	}
	return median(rs), median(a), median(b), n
}
