package main

import "github.com/mayflower-dfs/mayflower/internal/obs"

// perLayer fills a traced testbed run's per-layer metrics from its spans,
// the clients' registries and the cluster's registry.
func (r *tbRun) perLayer(m map[string]float64, rec *recorder) {
	recs, fill := r.recs, r.d.fill.all()
	st := byName(rec.snapshot())
	spanMS := func(name string) float64 {
		if s := st[name]; s != nil {
			return s.meanMS()
		}
		return 0
	}
	m["nameserver.lookup_ms"] = spanMS("nameserver.Lookup")
	m["nameserver.create_ms"] = spanMS("nameserver.Create")
	m["flowserver.select_ms"] = spanMS("flowserver.Select")
	m["flowserver.finished_ms"] = spanMS("flowserver.Finished")
	m["flowserver.select_write_ms"] = spanMS("flowserver.SelectWrite")
	m["dataserver.stat_ms"] = spanMS("dataserver.Stat")
	m["dataserver.dial_ms"] = spanMS("dataserver.Dial")
	m["dataserver.first_byte_ms"] = spanMS("dataserver.FirstByte")
	m["dataserver.body_ms"] = spanMS("dataserver.Body")
	m["dataserver.append_ms"] = spanMS("dataserver.Append")
	m["dataserver.relay_hop_ms"] = spanMS("dataserver.AppendAt")
	m["workload.generate_ms"] = spanMS("workload.Generate")

	// The client path's reads, traced and untraced, against the direct
	// reads' parts: what the parts leave unexplained, and what a span
	// costs (compared on medians, which the phase's tail reads cannot
	// swing).
	plain := filter(recs, opRead, func(x opRec) bool { return x.err == nil && !x.direct && !x.traced })
	traced := filter(recs, opRead, func(x opRec) bool { return x.err == nil && !x.direct && x.traced })
	var parts []float64
	if s := st["read"]; s != nil {
		parts = s.kidsSum
	}
	m["trace.unaccounted_ms"] = mean(svcMS(plain)) - mean(parts)
	m["trace.overhead_frac"] = ratio(median(svcMS(traced)), median(svcMS(plain))) - 1

	// Client counters. Readers and the appender each own a registry, so
	// per-operation call counts are exact; workloads without a measured
	// appender take the append side from the catalog load's clients.
	clientReads := float64(len(filter(recs, opRead, func(x opRec) bool { return !x.direct })))
	clientAppends := float64(len(filter(recs, opAppend, func(x opRec) bool { return !x.direct })))
	var readSnaps []obs.Snapshot
	for _, hc := range r.clients {
		readSnaps = append(readSnaps, hc.reg.Snapshot())
	}
	appendSnap := r.d.loaderReg.Snapshot()
	if r.apc != nil {
		appendSnap = r.apc.reg.Snapshot()
	} else {
		clientAppends = float64(len(fill))
	}
	var hits, misses, readCalls, degraded float64
	for _, s := range readSnaps {
		hits += registryCounters(s, "client.cache_hits", "")
		misses += registryCounters(s, "client.cache_misses", "")
		readCalls += registryCounters(s, "client.rpc.method.", ".calls")
		degraded += registryCounters(s, "client.reads_degraded", "")
	}
	degraded += registryCounters(appendSnap, "client.writes_degraded", "")
	m["client.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["client.rpc_calls_per_read"] = ratio(readCalls, clientReads)
	m["client.rpc_calls_per_append"] = ratio(registryCounters(appendSnap, "client.rpc.method.", ".calls"), clientAppends)
	m["client.degraded_frac"] = ratio(degraded, clientReads+clientAppends)

	// Cluster counters (the drift audit is merged in when the cluster
	// closes, which the caller has done).
	c := r.d.reg.Snapshot()
	sel := c.Histograms["flowserver.select_seconds"]
	m["flowserver.select_cpu_us"] = sel.Mean * 1e6
	m["flowserver.candidates_per_select"] = ratio(registryCounters(c, "flowserver.candidates_evaluated", ""),
		registryCounters(c, "flowserver.selections", ""))
	m["flowserver.drift_abs_mean"] = c.Histograms["testbed.drift.rel_err"].Mean
	m["flowserver.poll_drop_frac"] = ratio(registryCounters(c, "flowserver.poll_drops_", ""),
		registryCounters(c, "flowserver.poll_samples", ""))
	scheduled := registryCounters(c, "dataserver.", ".relays_scheduled")
	m["dataserver.relay_scheduled_frac"] = ratio(scheduled, scheduled+registryCounters(c, "dataserver.", ".relays_static"))
	allReads := float64(len(filter(recs, opRead, nil)))
	m["emunet.reallocs_per_read"] = ratio(registryCounters(c, "emunet.reallocs", ""), allReads)

	m["gen.late_p99_ms"] = r.gen.lateP99()
	m["gen.inflight_max"] = float64(r.gen.maxInflight.Load())
}
