package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"plotters"
)

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[lo]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// timings summarizes the rounds' speed: records per second as the
// median over rounds, and verdict latency pooled over every window of
// every round (p50 and p90, with the sample count).
func timings(rounds []*roundResult) (rps, p50, p90 float64, samples int) {
	var perRound []float64
	var lat []time.Duration
	for _, rr := range rounds {
		perRound = append(perRound, float64(rr.sent)/rr.wall.Seconds())
		lat = append(lat, rr.latencies...)
	}
	latMS := millis(lat)
	return quantile(perRound, 0.5), quantile(latMS, 0.5), quantile(latMS, 0.9), len(lat)
}

// logTimings writes the rounds' speed to the summary; the p90 only when
// at least 100 windows back it.
func logTimings(label string, rounds []*roundResult) {
	rps, p50, p90, n := timings(rounds)
	p90note := "p90 needs at least 100 windows"
	if n >= 100 {
		p90note = fmt.Sprintf("p90 %.3f ms", p90)
	}
	logf("%s: records_per_s %.0f (median of %d rounds), verdict latency p50 %.3f ms over %d windows (%s)",
		label, rps, len(rounds), p50, n, p90note)
}

// endToEndMetrics reports the untraced rounds' steady end-to-end
// figures: allocation per record over all rounds, the heap probe's peak
// live heap above the heap live after set-up, and set-up time. The
// rounds' speed goes to the summary only; see LAYERS.md for why it is
// not a declared end-to-end metric.
func endToEndMetrics(c *corpus, rounds []*roundResult, peakHeap float64) map[string]metric {
	var builds []float64
	var sent int64
	var mallocs, bytes uint64
	for _, rr := range rounds {
		builds = append(builds, rr.build.Seconds())
		sent += rr.sent
		mallocs += rr.mallocs
		bytes += rr.allocBytes
	}
	setup := (c.generate + c.overlay + c.encode).Seconds() + quantile(builds, 0.5)
	m := map[string]metric{
		"allocs_per_record": {float64(mallocs) / float64(sent), "count"},
		"bytes_per_record":  {float64(bytes) / float64(sent), "B"},
		"peak_heap_mb":      {peakHeap / (1 << 20), "MB"},
		"setup_s":           {setup, "s"},
	}
	logTimings("untraced rounds", rounds)
	logf("allocs/record %.3f, bytes/record %.1f, peak heap %.1f MB, setup %.2f s",
		m["allocs_per_record"].Value, m["bytes_per_record"].Value, m["peak_heap_mb"].Value, setup)
	return m
}

// stageTotal returns a registry stage's accumulated time.
func stageTotal(snap plotters.MetricsSnapshot, name string) time.Duration {
	for _, s := range snap.Stages {
		if s.Name == name {
			return time.Duration(s.TotalSeconds * 1e9)
		}
	}
	return 0
}

// layerMetrics reports the traced rounds layer by layer, plus the
// untraced rounds' speed (records_per_s, verdict_latency_p50_ms) and
// the tracing overhead between the two. Layer times are per round (one
// replay of every pass), so each layer's share of wall time is its self
// time over wall_ms; the self times plus unattributed_ms sum to wall_ms.
// The engine's seal and merge timers are reported as one sum: tumbling
// windows never merge, and a merge time alone would read 0 on every run
// of those workloads.
func layerMetrics(c *corpus, rounds []*roundResult) (map[string]metric, error) {
	var lt layerTimes
	var traced []float64
	var untraced []*roundResult
	var seal, merge, hist, matrix, clust, reduction, build, propagate time.Duration
	var packets, decoded, sampledOut, batches, queueHW int64
	var windows, drops int
	var edges []float64
	for _, rr := range rounds {
		if rr.trace == nil {
			untraced = append(untraced, rr)
			continue
		}
		traced = append(traced, float64(rr.sent)/rr.wall.Seconds())
		l := rr.trace.layers()
		lt.wall += l.wall
		lt.collector += l.collector
		lt.engine += l.engine
		lt.paper += l.paper
		lt.community += l.community
		lt.emit += l.emit
		lt.unattrib += l.unattrib
		lt.paperRuns = append(lt.paperRuns, l.paperRuns...)
		lt.communRuns = append(lt.communRuns, l.communRuns...)
		if l.collector < 0 || l.engine < 0 || l.unattrib < 0 {
			return nil, fmt.Errorf("traced round: negative self time in %+v", l)
		}

		s := rr.snap
		seal += stageTotal(s, "engine/seal")
		merge += stageTotal(s, "engine/merge")
		hist += stageTotal(s, "pipeline/hm/histograms")
		matrix += stageTotal(s, "pipeline/hm/matrix")
		clust += stageTotal(s, "pipeline/hm/cluster")
		reduction += stageTotal(s, "pipeline/reduction")
		build += stageTotal(s, "community/build")
		propagate += stageTotal(s, "community/propagate")
		packets += s.Counters["collector/packets"]
		decoded += s.Counters["collector/records"]
		sampledOut += s.Counters["collector/records/sampled_out"]
		batches += s.Counters["collector/batches"]
		queueHW = max(queueHW, s.Gauges["collector/queue/high_water"])
		windows += len(rr.verdicts)
		drops += rr.drops
		for _, v := range rr.verdicts {
			edges = append(edges, float64(v.GraphEdges))
		}
	}
	n := float64(len(traced))
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 / n }
	if sum := lt.collector + lt.engine + lt.paper + lt.community + lt.emit + lt.unattrib; sum != lt.wall {
		return nil, fmt.Errorf("layer self times sum to %v, wall is %v", sum, lt.wall)
	}
	rps, p50, _, _ := timings(untraced)
	logTimings("untraced rounds", untraced)
	extract := lt.engine - seal - merge
	perBatch := 0.0
	if batches > 0 {
		perBatch = float64(packets) / float64(batches)
	}
	m := map[string]metric{
		"wall_ms":                       {ms(lt.wall), "ms"},
		"synth.generate_s":              {c.generate.Seconds(), "s"},
		"synth.overlay_s":               {c.overlay.Seconds(), "s"},
		"flowio.encode_s":               {c.encode.Seconds(), "s"},
		"collector.self_ms":             {ms(lt.collector), "ms"},
		"collector.ns_per_datagram":     {float64(lt.collector) / float64(packets), "ns"},
		"collector.datagrams":           {float64(packets) / n, "count"},
		"collector.keep_ratio":          {float64(decoded) / float64(decoded+sampledOut), "ratio"},
		"collector.queue_high_water":    {float64(queueHW), "count"},
		"collector.datagrams_per_batch": {perBatch, "ratio"},
		"engine.add_self_ms":            {ms(lt.engine), "ms"},
		"engine.seal_merge_ms":          {ms(seal + merge), "ms"},
		"engine.extract_ns_per_record":  {float64(extract) / float64(decoded), "ns"},
		"engine.windows":                {float64(windows) / n, "count"},
		"engine.drops":                  {float64(drops), "count"},
		"core.detect_ms":                {ms(lt.paper), "ms"},
		"core.detect_p50_ms":            {quantile(millis(lt.paperRuns), 0.5), "ms"},
		"core.hm_histograms_ms":         {ms(hist), "ms"},
		"core.hm_matrix_ms":             {ms(matrix), "ms"},
		"core.hm_cluster_ms":            {ms(clust), "ms"},
		"core.reduction_ms":             {ms(reduction), "ms"},
		"community.detect_ms":           {ms(lt.community), "ms"},
		"community.detect_p50_ms":       {quantile(millis(lt.communRuns), 0.5), "ms"},
		"community.build_ms":            {ms(build), "ms"},
		"community.propagate_ms":        {ms(propagate), "ms"},
		"community.graph_edges":         {quantile(edges, 0.5), "count"},
		"emit_ms":                       {ms(lt.emit), "ms"},
		"unattributed_ms":               {ms(lt.unattrib), "ms"},
		"trace_overhead":                {1 - quantile(traced, 0.5)/rps, "ratio"},
		"records_per_s":                 {rps, "1/s"},
		"verdict_latency_p50_ms":        {p50, "ms"},
	}
	wall := m["wall_ms"].Value
	logf("traced layer shares of %.1f ms wall per round (%d traced rounds): collector %.1f%%, engine %.1f%% (seal %.1f%%, merge %.1f%%, extract %.1f%%), core %.1f%%, community %.1f%%, emit %.2f%%, unattributed %.3f%%; trace overhead %.1f%%",
		wall, len(traced), 100*m["collector.self_ms"].Value/wall, 100*m["engine.add_self_ms"].Value/wall,
		100*ms(seal)/wall, 100*ms(merge)/wall, 100*ms(extract)/wall,
		100*m["core.detect_ms"].Value/wall, 100*m["community.detect_ms"].Value/wall,
		100*m["emit_ms"].Value/wall, 100*m["unattributed_ms"].Value/wall, 100*m["trace_overhead"].Value)
	return m, nil
}
