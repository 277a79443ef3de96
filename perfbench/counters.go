package main

import (
	"bufio"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	dq "repro"
	"repro/internal/core"
)

// coreCounters are the core, epoch and arena counters one snapshot
// publishes: read from Deque.Metrics() in-process, or scraped from a
// server's Prometheus /metrics endpoint.
type coreCounters struct {
	trans, fails [7]float64 // transitions L1..L7 and their lost CAS races
	ops          float64    // completed pushes, pops and empty pops
	hints        float64
	hops         float64
	restarts     float64
	cacheHits    float64
	cacheMisses  float64
	retired      float64
	recycled     float64
	// Gauges.
	limbo   float64 // nodes retired, not yet past grace
	live    float64 // nodes on or reachable from the chain
	memHigh float64 // high water of retained nodes (recycling only)
}

func countersOf(m dq.Metrics) coreCounters {
	c := coreCounters{
		ops:         float64(m.Ops()),
		hints:       float64(m.HintPublishes),
		hops:        float64(m.OracleHops),
		restarts:    float64(m.OracleRestarts),
		cacheHits:   float64(m.EdgeCacheHits),
		cacheMisses: float64(m.EdgeCacheMisses),
		retired:     float64(m.NodesRetired),
		recycled:    float64(m.NodesRecycled),
		limbo:       float64(m.NodesLimbo),
		live:        float64(m.NodesLive),
		memHigh:     float64(m.MemNodesHighWater),
	}
	for i := range c.trans {
		c.trans[i] = float64(m.Transitions[i])
		c.fails[i] = float64(m.TransitionFails[i])
	}
	return c
}

// countersOfProm reads the series cmd/dequed and cmd/schedd export under
// prefix.
func countersOfProm(series map[string]float64, prefix string) coreCounters {
	g := func(name string) float64 { return series[prefix+"_"+name] }
	c := coreCounters{
		ops:         g(`ops_total{op="push"}`) + g(`ops_total{op="pop"}`) + g(`ops_total{op="empty"}`),
		hints:       g("hint_publishes_total"),
		hops:        g("oracle_hops_total"),
		restarts:    g("oracle_restarts_total"),
		cacheHits:   g("edge_cache_hits_total"),
		cacheMisses: g("edge_cache_misses_total"),
		retired:     g("nodes_retired"),
		recycled:    g("nodes_recycled"),
		limbo:       g("nodes_limbo"),
		live:        g("nodes_live"),
		memHigh:     g("mem_nodes_high_water"),
	}
	for i := range c.trans {
		c.trans[i] = g(fmt.Sprintf(`transitions_total{point="L%d"}`, i+1))
		c.fails[i] = g(fmt.Sprintf(`transition_fails_total{point="L%d"}`, i+1))
	}
	return c
}

// since returns the counters accumulated from a to c; gauges stay c's.
func (c coreCounters) since(a coreCounters) coreCounters {
	d := c
	for i := range d.trans {
		d.trans[i] -= a.trans[i]
		d.fails[i] -= a.fails[i]
	}
	d.ops -= a.ops
	d.hints -= a.hints
	d.hops -= a.hops
	d.restarts -= a.restarts
	d.cacheHits -= a.cacheHits
	d.cacheMisses -= a.cacheMisses
	d.retired -= a.retired
	d.recycled -= a.recycled
	return d
}

// peaks tracks gauge maxima over the samples of a phase.
type peaks struct{ limbo, live float64 }

func (p *peaks) add(c coreCounters) {
	p.limbo = max(p.limbo, c.limbo)
	p.live = max(p.live, c.live)
}

// fillLayers sets the core, epoch and arena metrics from the counters
// accumulated over a phase (d), the gauge peaks seen during it, and the
// number of values resident at its end.
func fillLayers(o *outcome, d coreCounters, pk peaks, resident int) {
	var trans, fails float64
	for i := range d.trans {
		trans += d.trans[i]
		fails += d.fails[i]
	}
	o.values["core.cas_fail_ratio"] = ratio(fails, fails+trans)
	o.values["core.oracle_hops_per_op"] = ratio(d.hops, d.ops)
	o.values["core.edge_cache_hit_ratio"] = ratio(d.cacheHits, d.cacheHits+d.cacheMisses)
	o.values["core.hint_publishes_per_kop"] = ratio(1e3*d.hints, d.ops)
	o.values["core.straddle_ratio"] = ratio(trans-d.trans[0]-d.trans[1], trans)
	o.values["core.node_removes_per_kop"] = ratio(1e3*d.trans[6], d.ops)
	o.values["core.oracle_restarts_per_mop"] = ratio(1e6*d.restarts, d.ops)

	o.values["epoch.recycle_ratio"] = ratio(d.recycled, d.retired)
	o.values["epoch.limbo_peak_nodes"] = pk.limbo
	high := pk.live
	if d.memHigh > 0 {
		high = d.memHigh
	}
	resident = max(resident, 1)
	o.values["arena.nodes_high_water"] = high
	o.values["arena.bytes_per_elem"] = high * float64(core.NodeFootprint(core.DefaultNodeSize)) / float64(resident)
	o.detail["resident_values"] = resident
}

// scrape fetches a Prometheus text page and returns its samples keyed by
// series (name plus labels, as printed).
func scrape(client *http.Client, url string) (map[string]float64, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	series := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue // not a sample line this benchmark reads
		}
		series[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	return series, nil
}

// scrapeRetry scrapes until the endpoint answers or wait has passed: the
// server starts its metrics listener in the background.
func scrapeRetry(client *http.Client, url string, wait time.Duration) (map[string]float64, error) {
	deadline := time.Now().Add(wait)
	for {
		s, err := scrape(client, url)
		if err == nil || time.Now().After(deadline) {
			return s, err
		}
		time.Sleep(10 * time.Millisecond)
	}
}
