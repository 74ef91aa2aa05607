package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"

	"plotters"
)

// verdict is one window's outcome as the gate compares it: the window,
// its population, the paper pipeline's stage-by-stage result and the
// community detector's graph and suspects.
type verdict struct {
	Index          int
	Window         plotters.Window
	Hosts, Records int
	Paper          []plotters.IP
	Survivors      [4]int     // reduction, θ_vol, θ_churn, θ_hm
	Thresholds     [4]float64 // the same stages' cutoffs
	Clusters       int
	Clustered      int
	Skipped        int
	Community      []plotters.IP
	GraphHosts     int
	GraphEdges     int
	Communities    int
	Flagged        int
}

// summarize reduces an emitted window to its verdict. The engine runs
// the paper pipeline first and the community detector second.
func summarize(res *plotters.WindowResult) verdict {
	v := verdictOf(res.Detection, res.Detections[1])
	v.Index, v.Window, v.Hosts, v.Records = res.Index, res.Window, res.Hosts, res.Records
	return v
}

func verdictOf(paper *plotters.Result, comm *plotters.Detection) verdict {
	v := verdict{
		Paper: paper.Suspects.Sorted(),
		Survivors: [4]int{len(paper.Reduction.Kept), len(paper.Volume.Kept),
			len(paper.Churn.Kept), len(paper.Suspects)},
		Thresholds: [4]float64{paper.Reduction.Threshold, paper.Volume.Threshold,
			paper.Churn.Threshold, paper.HM.Threshold},
		Clusters:  len(paper.HM.Clusters),
		Clustered: paper.HM.Clustered,
		Skipped:   paper.HM.Skipped,
		Community: comm.Suspects.Sorted(),
	}
	if rep, ok := comm.Details.(*plotters.CommunityReport); ok {
		v.GraphHosts, v.GraphEdges = rep.GraphHosts, rep.GraphEdges
		v.Communities, v.Flagged = len(rep.Communities), len(rep.Flagged)
	}
	return v
}

// reference is the batch outcome of every window the engine should
// emit, computed independently of the engine: FindPlotters and the
// community detector over ExtractFeatureSet, both over the window's
// decoded wire records (after the collector's sampling, when the
// workload samples).
type reference struct {
	verdicts []verdict
	wire     []int // wire records per window, every initiator
}

func buildReference(c *corpus) (*reference, error) {
	wire, err := c.wireRecords()
	if err != nil {
		return nil, err
	}
	cfg := plotters.DefaultConfig()
	cd, err := plotters.NewCommunityDetector(plotters.DefaultCommunityConfig())
	if err != nil {
		return nil, err
	}
	ref := &reference{}
	for i, w := range c.windows {
		lo := sort.Search(len(wire), func(j int) bool { return !wire[j].Start.Before(w.From) })
		hi := sort.Search(len(wire), func(j int) bool { return !wire[j].Start.Before(w.To) })
		recs := wire[lo:hi]
		fs := plotters.ExtractFeatureSet(recs, plotters.FeatureOptions{
			Hosts:        plotters.IsInternal,
			NewPeerGrace: cfg.NewPeerGrace,
		}, w)
		if fs.Hosts() == 0 {
			continue // the engine emits nothing for an empty window
		}
		a, err := plotters.NewAnalysisFromSource(fs, cfg)
		if err != nil {
			return nil, err
		}
		paper, err := a.FindPlotters()
		if err != nil {
			return nil, fmt.Errorf("reference window %v: %w", w, err)
		}
		comm, err := cd.Detect(fs)
		if err != nil {
			return nil, fmt.Errorf("reference window %v: %w", w, err)
		}
		v := verdictOf(paper, comm)
		v.Index, v.Window, v.Hosts = i, w, fs.Hosts()
		for _, f := range fs.Features() {
			v.Records += f.Flows
		}
		ref.verdicts = append(ref.verdicts, v)
		ref.wire = append(ref.wire, len(recs))
	}
	return ref, nil
}

// gate compares one round's emitted verdicts with the reference and
// returns a description of every difference (none when they agree).
// windowGap is the number of internally initiated records the
// reference windows hold that the emitted windows lack, divided by how
// many windows each record falls in.
func (ref *reference) gate(got []verdict, perRecord int) (diffs []string, windowGap int64) {
	byIndex := make(map[int]verdict, len(got))
	for _, v := range got {
		byIndex[v.Index] = v
	}
	var gap int64
	for _, want := range ref.verdicts {
		v, ok := byIndex[want.Index]
		if !ok {
			diffs = append(diffs, fmt.Sprintf("window %d %v: not emitted", want.Index, want.Window))
			gap += int64(want.Records)
			continue
		}
		delete(byIndex, want.Index)
		if v.Records < want.Records {
			gap += int64(want.Records - v.Records)
		}
		if !reflect.DeepEqual(v, want) {
			diffs = append(diffs, fmt.Sprintf("window %d %v: engine %+v, reference %+v", want.Index, want.Window, brief(v), brief(want)))
		}
	}
	for idx := range byIndex {
		diffs = append(diffs, fmt.Sprintf("window %d: emitted but not in the reference", idx))
	}
	return diffs, gap / int64(perRecord)
}

// brief is a verdict's one-line form for mismatch reports.
func brief(v verdict) string {
	return fmt.Sprintf("hosts=%d records=%d paper=%d survivors=%v thresholds=%v community=%d edges=%d",
		v.Hosts, v.Records, len(v.Paper), v.Survivors, v.Thresholds, len(v.Community), v.GraphEdges)
}

// goldenPaper and goldenCommunity mirror the repository's pinned
// seed-42 day-0 outcomes (testdata/findplotters_golden.json and
// testdata/community_golden.json).
type goldenStage struct {
	Survivors int     `json:"survivors"`
	Threshold float64 `json:"threshold"`
}

type goldenPaper struct {
	Records   int         `json:"records"`
	Analyzed  int         `json:"analyzed_hosts"`
	Reduction goldenStage `json:"reduction"`
	Vol       goldenStage `json:"vol"`
	Churn     goldenStage `json:"churn"`
	HM        goldenStage `json:"hm"`
	Clusters  int         `json:"hm_clusters"`
	Clustered int         `json:"hm_clustered"`
	Skipped   int         `json:"hm_skipped"`
	Suspects  []string    `json:"suspects"`
}

type goldenCommunity struct {
	GraphHosts   int      `json:"graph_hosts"`
	GraphEdges   int      `json:"graph_edges"`
	Communities  int      `json:"communities"`
	Flagged      int      `json:"flagged_communities"`
	Suspects     []string `json:"suspects"`
	Union        int      `json:"ensemble_union"`
	Intersection int      `json:"ensemble_intersection"`
}

// checkGolden compares a window's verdict, over wire decoded records,
// with the pinned seed-42 goldens under root/testdata.
func checkGolden(root string, v verdict, wire int) ([]string, error) {
	var gp goldenPaper
	var gc goldenCommunity
	for path, dst := range map[string]any{
		"findplotters_golden.json": &gp,
		"community_golden.json":    &gc,
	} {
		raw, err := os.ReadFile(filepath.Join(root, "testdata", path))
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(raw, dst); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	var diffs []string
	check := func(name string, got, want any) {
		if !reflect.DeepEqual(got, want) {
			diffs = append(diffs, fmt.Sprintf("golden %s: got %v, want %v", name, got, want))
		}
	}
	check("records", wire, gp.Records)
	check("analyzed_hosts", v.Hosts, gp.Analyzed)
	// The golden was computed over the synthesized records. Export
	// formats carry millisecond timestamps, which moves the
	// interstitial-time cutoff τ_hm slightly (≈5e-5 relative at seed 42)
	// but none of the counting stages' cutoffs, nor any survivor or
	// suspect.
	tol := [4]float64{1e-9, 1e-9, 1e-9, 1e-3 * gp.HM.Threshold}
	for i, st := range []goldenStage{gp.Reduction, gp.Vol, gp.Churn, gp.HM} {
		check(fmt.Sprintf("stage %d survivors", i), v.Survivors[i], st.Survivors)
		if math.Abs(v.Thresholds[i]-st.Threshold) > tol[i] {
			diffs = append(diffs, fmt.Sprintf("golden stage %d threshold: got %v, want %v", i, v.Thresholds[i], st.Threshold))
		}
	}
	check("hm clusters", [3]int{v.Clusters, v.Clustered, v.Skipped}, [3]int{gp.Clusters, gp.Clustered, gp.Skipped})
	check("paper suspects", ipStrings(v.Paper), gp.Suspects)
	check("community graph", [4]int{v.GraphHosts, v.GraphEdges, v.Communities, v.Flagged},
		[4]int{gc.GraphHosts, gc.GraphEdges, gc.Communities, gc.Flagged})
	check("community suspects", ipStrings(v.Community), gc.Suspects)
	union, inter := overlap(v.Paper, v.Community)
	check("ensemble union/intersection", [2]int{union, inter}, [2]int{gc.Union, gc.Intersection})
	return diffs, nil
}

func ipStrings(ips []plotters.IP) []string {
	out := make([]string, len(ips))
	for i, ip := range ips {
		out[i] = ip.String()
	}
	return out
}

// overlap returns the sizes of the union and intersection of two host
// lists.
func overlap(a, b []plotters.IP) (union, inter int) {
	in := make(map[plotters.IP]bool, len(a))
	for _, ip := range a {
		in[ip] = true
	}
	for _, ip := range b {
		if in[ip] {
			inter++
		}
	}
	return len(a) + len(b) - inter, inter
}
