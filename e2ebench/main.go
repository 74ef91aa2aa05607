// Command e2ebench is the FindPlotters border monitor's datagram-to-
// verdict benchmark. It synthesizes day 0 of the seed-42 evaluation
// corpus, overlays the honeynet bots with the run's seed, replays the
// day as back-to-back passes encoded as flow-export datagrams, and drives them through the collector, the windowed engine
// and both detectors (the paper pipeline and the community detector),
// using only the exported plotters package. Every emitted window is
// checked against an independent batch reference; at seed 42 the first
// day-v5 window must also equal the repository's pinned goldens.
//
// Run it from the repository root (run.sh builds it first):
//
//	e2ebench --workload day-v5 --seed 42 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: whether every
// verdict was correct, the records attempted and failed, and the
// end-to-end metrics (--trace 0) or the per-layer metrics of a traced
// run (--trace 1). A human-readable summary goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"plotters"
)

// workload is one input shape: the export format, how many passes of
// the day one round replays, the detection window, and the collector's
// sampling and transport.
type workload struct {
	name    string
	format  string // export trace format: netflow (v5), ipfix or sflow
	passes  int
	window  time.Duration // 0: one tumbling window per pass
	slide   time.Duration // 0: tumbling windows
	sampleN uint64        // collector flow sampling, 1 in sampleN (0: off)
	socket  bool          // send over a loopback UDP socket instead of Inject
}

var workloads = []workload{
	// NetFlow v5, one 6 h tumbling window per pass, every record kept:
	// the golden day at full rate, where feature extraction dominates.
	{name: "day-v5", format: "netflow", passes: 3},
	// IPFIX, 1 h windows sliding every 10 min: 36 detections and pane
	// merges per pass.
	{name: "slide-ipfix", format: "ipfix", passes: 2, window: time.Hour, slide: 10 * time.Minute},
	// sFlow v5 over a real loopback socket with 1-in-16 sampling: the
	// decode, sampling and socket reader stages dominate.
	{name: "sampled-sflow", format: "sflow", passes: 3, sampleN: 16, socket: true},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options configure one benchmark run.
type options struct {
	w       workload
	seed    int64
	seconds int
	trace   bool
	golden  bool   // check the first window against the seed-42 goldens
	root    string // repository root, where testdata/ lives
	spanDir string // where a traced run writes its spans
	dataset plotters.DatasetConfig
	faults  faults
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name: day-v5, slide-ipfix or sampled-sflow")
		seed    = flag.Int64("seed", 42, "input seed: the bot overlay uses seed+1, the sampler seed")
		seconds = flag.Int("seconds", 10, "how long to measure")
		trace   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	)
	flag.Parse()
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	// Every seed replays the seed-42 campus day, the corpus the goldens
	// pin; the seed moves the bots and the sampled subset. Seeding the
	// campus synthesis too would add each corpus's own cost to every
	// run-to-run spread.
	ds := plotters.DefaultDatasetConfig(42)
	ds.Days = 1
	res, err := run(options{
		w:       w,
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		golden:  *seed == 42 && w.name == "day-v5",
		root:    ".",
		spanDir: ".bench_build",
		dataset: ds,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// run sets up the corpus, measures rounds for o.seconds, then gates
// every round's verdicts against the batch reference.
func run(o options) (*result, error) {
	c, err := buildCorpus(o.w, o.seed, o.dataset)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	heap := newLiveHeap()
	runtime.GC()
	baseline := heap.read()
	logf("%s seed %d: %d records in %d datagrams over %d passes, %d windows per round; generate %.2fs overlay %.2fs encode %.2fs",
		o.w.name, o.seed, c.records, len(c.packets), o.w.passes, len(c.windows),
		c.generate.Seconds(), c.overlay.Seconds(), c.encode.Seconds())

	// The first round probes the peak heap (and warms up); its timings
	// are not used. After it, an untraced run measures untraced rounds
	// only, and a traced run alternates traced and untraced rounds so
	// the tracing overhead is measured under the same conditions.
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	runtime.GC()
	probe, err := runRound(c, false, true, o.faults)
	if err != nil {
		return nil, fmt.Errorf("heap probe round: %w", err)
	}
	var rounds []*roundResult
	for i := 0; ; i++ {
		traced := o.trace && i%2 == 0
		runtime.GC()
		rr, err := runRound(c, traced, false, o.faults)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		rounds = append(rounds, rr)
		if time.Now().After(deadline) && (!o.trace || i >= 1) {
			break
		}
	}

	logf("%d rounds measured; building the batch reference", len(rounds))
	ref, err := buildReference(c)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	res := &result{Correct: true}
	perRecord := int(c.windowLen() / c.paneLen())
	for i, rr := range append([]*roundResult{probe}, rounds...) {
		diffs, gap := ref.gate(rr.verdicts, perRecord)
		for _, d := range diffs {
			logf("round %d: verdict mismatch: %s", i, d)
		}
		if len(diffs) > 0 {
			res.Correct = false
		}
		res.Attempted += rr.sent
		res.Failed += max(rr.lost+int64(rr.drops), gap)
	}
	if o.golden {
		diffs, err := checkGolden(o.root, ref.verdicts[0], ref.wire[0])
		if err != nil {
			return nil, fmt.Errorf("golden: %w", err)
		}
		for _, d := range diffs {
			logf("seed-42 golden mismatch: %s", d)
		}
		if len(diffs) > 0 {
			res.Correct = false
		}
		logf("seed-42 golden: first window %v checked against testdata goldens", ref.verdicts[0].Window)
	}
	logf("verdict gate: %d rounds (with the heap probe) × %d windows against the batch reference, correct=%v, failed %d of %d records",
		len(rounds)+1, len(ref.verdicts), res.Correct, res.Failed, res.Attempted)

	if o.trace {
		res.Metrics, err = layerMetrics(c, rounds)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(o.spanDir, fmt.Sprintf("spans-%s-%d.csv", o.w.name, o.seed))
		if err := writeSpans(path, rounds); err != nil {
			return nil, err
		}
		logf("spans written to %s", path)
	} else {
		res.Metrics = endToEndMetrics(c, rounds, float64(probe.peakLive)-float64(baseline))
	}
	return res, nil
}

var start = time.Now()

// logf writes one line of the run's summary to standard error, stamped
// with the seconds since the benchmark started.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "[%6.2fs] "+format+"\n", append([]any{time.Since(start).Seconds()}, args...)...)
}
