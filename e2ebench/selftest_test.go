// Harness self-tests: the benchmark must count the failures it is
// built to count, keep its verdict gate running when input is lost,
// split a traced run's wall time exactly, and print the metrics
// BENCHMARK.json declares. They run on a scaled-down corpus day, so
// they take seconds rather than the full corpus's synthesis time:
//
//	go -C e2ebench test ./...
package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"

	"plotters"
)

// smallDataset is a scaled-down day 0 of the seed-42 corpus: the same
// generators and record mix at a fraction of the hosts.
func smallDataset() plotters.DatasetConfig {
	cfg := plotters.DefaultDatasetConfig(42)
	cfg.Days = 1
	cfg.DayTemplate.CampusHosts = 100
	cfg.DayTemplate.Gnutella = 3
	cfg.DayTemplate.EMule = 3
	cfg.DayTemplate.BitTorrent = 4
	cfg.DayTemplate.PeerNetworkNodes = 800
	cfg.Storm.Bots = 6
	cfg.Storm.OverlayNodes = 500
	cfg.Storm.SeedPeers = 50
	cfg.Nugache.Bots = 15
	cfg.Nugache.OverlayNodes = 400
	return cfg
}

func smallRun(t *testing.T, name string, seed int64, trace bool, f faults) *result {
	t.Helper()
	w, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	res, err := run(options{
		w:       w,
		seed:    seed,
		seconds: 1,
		trace:   trace,
		root:    "..",
		spanDir: t.TempDir(),
		dataset: smallDataset(),
		faults:  f,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func assertMetrics(t *testing.T, got map[string]metric, want []string) {
	t.Helper()
	var names []string
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("metrics %v, BENCHMARK.json declares %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("metrics %v, BENCHMARK.json declares %v", names, want)
		}
	}
	for name, m := range got {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v", name, m.Value)
		}
	}
}

// Every workload passes its verdict gate with nothing lost, at two
// seeds, and reports exactly the end-to-end metrics BENCHMARK.json
// declares, none of them zero.
func TestWorkloadsCleanAtTwoSeeds(t *testing.T) {
	endToEnd, _ := benchmarkMetrics(t)
	for _, w := range workloads {
		for _, seed := range []int64{42, 7} {
			res := smallRun(t, w.name, seed, false, faults{})
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s seed %d: correct=%v failed=%d attempted=%d", w.name, seed, res.Correct, res.Failed, res.Attempted)
			}
			assertMetrics(t, res.Metrics, endToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s seed %d: %s = %v, want > 0", w.name, seed, name, m.Value)
				}
			}
		}
	}
}

// A truncated datagram and a burst past a held collector queue are
// counted as failed records, and the verdict gate still runs and
// rejects the damaged windows.
func TestFaultsFailTheRun(t *testing.T) {
	// The queue must hold the closed loop's whole window, or every
	// later send would overflow it too.
	res := smallRun(t, "day-v5", 42, false, faults{corrupt: 5, overflow: 40, queue: 2 * inflightPackets})
	if res.Failed == 0 || res.Failed > res.Attempted/20 {
		t.Errorf("failed = %d of %d attempted, want the damaged datagrams' records only", res.Failed, res.Attempted)
	}
	if res.Correct {
		t.Error("verdict gate passed windows that lost records")
	}
}

// A traced run's layer self times and unattributed time add up to its
// wall time, none negative, and it reports exactly the per-layer
// metrics BENCHMARK.json declares.
func TestTracedLayersSumToWall(t *testing.T) {
	_, perLayer := benchmarkMetrics(t)
	for _, w := range workloads {
		res := smallRun(t, w.name, 42, true, faults{})
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d", w.name, res.Correct, res.Failed)
		}
		assertMetrics(t, res.Metrics, perLayer)
		var sum float64
		for _, name := range []string{"collector.self_ms", "engine.add_self_ms", "core.detect_ms",
			"community.detect_ms", "emit_ms", "unattributed_ms"} {
			v := res.Metrics[name].Value
			if v < 0 {
				t.Errorf("%s: %s = %v", w.name, name, v)
			}
			sum += v
		}
		if wall := res.Metrics["wall_ms"].Value; math.Abs(sum-wall) > 1e-6*wall {
			t.Errorf("%s: layer self times sum to %v ms, wall is %v ms", w.name, sum, wall)
		}
	}
}
