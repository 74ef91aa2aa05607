package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"plotters/internal/cluster"
	"plotters/internal/distmatrix"
	"plotters/internal/emd"
	"plotters/internal/flow"
	"plotters/internal/histogram"
	"plotters/internal/stats"
)

// logScale maps interstitial seconds onto a logarithmic axis (log1p, so
// zero gaps stay finite). Timer structure is multiplicative — a 2-minute
// keepalive versus a 10-second gossip timer — so comparing distributions
// on the log axis lets EMD measure relative timing differences instead of
// being swamped by the absolute size of heavy-tail gaps.
func logScale(samples []float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = math.Log1p(s)
	}
	return out
}

// HMCluster is one cluster of hosts with similar interstitial-time
// distributions.
type HMCluster struct {
	Hosts    []flow.IP
	Diameter float64
	// Kept reports whether the cluster survived the τ_hm diameter filter.
	Kept bool
}

// HMResult is the outcome of θ_hm (§IV-C).
type HMResult struct {
	// Kept is the union of surviving clusters' hosts — the suspected
	// Plotters.
	Kept HostSet
	// Threshold is τ_hm, the diameter cutoff.
	Threshold float64
	// Clusters lists every multi-member cluster with its diameter.
	Clusters []HMCluster
	// Clustered counts hosts that had enough interstitial samples to
	// participate.
	Clustered int
	// Skipped counts input hosts with too few samples to cluster — they
	// cannot pass θ_hm, which is how the test sheds low-activity hosts.
	Skipped int
}

// HMTest is θ_hm (§IV-C), the human- vs. machine-driven test: build a
// Freedman–Diaconis histogram of each host's pooled per-destination flow
// interstitial times, compare hosts pairwise with the Earth Mover's
// Distance, cluster agglomeratively (average linkage, cutting the top
// CutFraction heaviest dendrogram links), and keep clusters of at least
// two hosts whose diameter is at most τ_hm — the pct-th percentile of
// cluster diameters. Machine-driven hosts running the same bot binary
// share timer structure and co-cluster tightly; human-driven hosts do
// not.
func (a *Analysis) HMTest(s HostSet, pct float64) (HMResult, error) {
	reg := a.cfg.Metrics
	hosts := make([]flow.IP, 0, len(s))
	hists := make([]*histogram.Histogram, 0, len(s))
	skipped := 0
	t := reg.StartStage("pipeline/hm/histograms")
	for _, h := range s.Sorted() {
		f, ok := a.feats[h]
		if !ok || len(f.Interstitials) < a.cfg.MinInterstitialSamples {
			skipped++
			continue
		}
		hist, err := hmHistogram(f.Interstitials, a.cfg)
		if err != nil {
			return HMResult{}, fmt.Errorf("core: histogram for %v: %w", h, err)
		}
		hosts = append(hosts, h)
		hists = append(hists, hist)
	}
	t.Stop()
	reg.Gauge("pipeline/hm/clustered").Set(int64(len(hosts)))
	reg.Gauge("pipeline/hm/skipped").Set(int64(skipped))
	if len(hosts) < 2 {
		return HMResult{Kept: HostSet{}, Skipped: skipped, Clustered: len(hosts)}, nil
	}

	// Pairwise EMD over histogram signatures. Each host's signature is
	// validated, sorted, and normalized exactly once here; the O(n²)
	// pairwise comparisons then run allocation-free. Hosts are in sorted
	// address order, so any signature error reports the first offending
	// host deterministically.
	t = reg.StartStage("pipeline/hm/signatures")
	sigs := make([]*emd.Signature, len(hists))
	for i, h := range hists {
		pos, w := h.Signature()
		sig, err := emd.NewSignature(pos, w)
		if err != nil {
			return HMResult{}, fmt.Errorf("core: EMD signature for %v: %w", hosts[i], err)
		}
		sigs[i] = sig
	}
	t.Stop()
	return a.hmCluster(hosts, sigs, skipped, pct)
}

// hmHistogram builds one host's interstitial-time histogram at the
// configured scale and resolution — the per-host sketch that is all
// θ_hm ever looks at. It is deliberately a pure function of one host's
// samples and the config, which is what lets the shard-local phase
// (LocalPass) precompute it far from the coordinator that clusters.
func hmHistogram(interstitials []float64, cfg Config) (*histogram.Histogram, error) {
	samples := interstitials
	if !cfg.RawTimeScale {
		samples = logScale(samples)
	}
	return histogram.Build(samples, cfg.MaxHistogramBins)
}

// hmCluster is the global half of θ_hm: given the clusterable hosts (in
// ascending address order) and their validated EMD signatures, run the
// pairwise distance matrix, agglomerative clustering, and the τ_hm
// diameter filter. Both the single-process HMTest and the distributed
// GlobalPass end up here, so the two paths cannot diverge.
func (a *Analysis) hmCluster(hosts []flow.IP, sigs []*emd.Signature, skipped int, pct float64) (HMResult, error) {
	reg := a.cfg.Metrics

	// The matrix is the pipeline's dominant cost; distmatrix shards it
	// across cfg.Parallelism workers (0 = all CPUs) with output — values
	// and any error — bit-identical to a sequential i-then-j loop.
	t := reg.StartStage("pipeline/hm/matrix")
	dist, err := distmatrix.Compute(context.Background(), len(hosts),
		func(i, j int) (float64, error) { return sigs[i].Distance(sigs[j]), nil },
		distmatrix.Options{Parallelism: a.cfg.Parallelism, Metrics: reg})
	t.Stop()
	if err != nil {
		var pe *distmatrix.PairError
		if errors.As(err, &pe) {
			return HMResult{}, fmt.Errorf("core: EMD between %v and %v: %w", hosts[pe.I], hosts[pe.J], pe.Err)
		}
		return HMResult{}, fmt.Errorf("core: distance matrix: %w", err)
	}

	t = reg.StartStage("pipeline/hm/cluster")
	dendro, err := cluster.Agglomerate(len(hosts), dist.DistFunc())
	if err != nil {
		return HMResult{}, fmt.Errorf("core: clustering: %w", err)
	}
	groups := dendro.CutTopFraction(a.cfg.CutFraction)
	t.Stop()

	// Multi-member clusters only: a lone machine-like host has no botnet
	// peer to corroborate it.
	var clusters []HMCluster
	var diameters []float64
	for _, members := range groups {
		if len(members) < 2 {
			continue
		}
		diam := clusterSpread(a.cfg, members, dist.DistFunc())
		ips := make([]flow.IP, len(members))
		for k, m := range members {
			ips[k] = hosts[m]
		}
		clusters = append(clusters, HMCluster{Hosts: ips, Diameter: diam})
		diameters = append(diameters, diam)
	}
	reg.Gauge("pipeline/hm/clusters").Set(int64(len(clusters)))
	result := HMResult{Kept: HostSet{}, Clusters: clusters, Clustered: len(hosts), Skipped: skipped}
	if len(clusters) == 0 {
		return result, nil
	}
	threshold, err := stats.Percentile(diameters, pct)
	if err != nil {
		return HMResult{}, fmt.Errorf("core: diameter threshold: %w", err)
	}
	result.Threshold = threshold
	for i := range result.Clusters {
		c := &result.Clusters[i]
		if c.Diameter <= threshold {
			c.Kept = true
			for _, ip := range c.Hosts {
				result.Kept[ip] = true
			}
		}
	}
	return result, nil
}

// clusterSpread computes the cluster statistic the τ_hm filter compares:
// mean pairwise distance by default (robust to one contaminated member —
// a bot sitting on an unusually busy host would otherwise blow up its
// cluster's maximum), or the strict maximum when MaxDiameter is set.
func clusterSpread(cfg Config, members []int, dist func(i, j int) float64) float64 {
	if cfg.MaxDiameter {
		return cluster.Diameter(members, dist)
	}
	return cluster.MeanPairwise(members, dist)
}
