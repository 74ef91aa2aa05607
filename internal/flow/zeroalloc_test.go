package flow

import (
	"testing"
	"time"
)

// The extractor's steady-state contract: a record from a known host to
// a destination it has already contacted costs zero heap allocations,
// through the reorder buffer and the contact table, on the single
// stream and on the sharded store. The host is warmed first and its
// Interstitials pre-sized, so the one remaining growth (that slice's
// amortized appends) stays out of the measurement.
func TestExtractorRepeatContactZeroAlloc(t *testing.T) {
	const (
		host  IP = 1
		peers    = 8
		runs     = 1000
	)
	at := baseTime()
	rec := mkRecord(host, 100, at, 500, StateEstablished)
	next := func() *Record {
		rec.Dst = 100 + IP(at.Unix()%peers)
		rec.Start = at
		rec.End = at.Add(time.Second)
		at = at.Add(time.Second)
		return &rec
	}
	// Warm-up spans several skews, so every destination is known and
	// the reorder buffer has reached its steady depth.
	warm := func(add func(*Record) error, ex func() *StreamExtractor) {
		t.Helper()
		for i := 0; i < 10*60; i++ {
			if err := add(next()); err != nil {
				t.Fatal(err)
			}
		}
		b := ex().builders[host]
		if b == nil || b.feats.Peers != peers {
			t.Fatalf("warm-up did not reach the host's %d destinations", peers)
		}
		b.feats.Interstitials = append(make([]float64, 0, len(b.feats.Interstitials)+4*runs), b.feats.Interstitials...)
	}
	measure := func(name string, add func(*Record) error) {
		t.Helper()
		allocs := testing.AllocsPerRun(runs, func() {
			if err := add(next()); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per repeat-contact record, want 0", name, allocs)
		}
	}

	se := NewStreamExtractorSkew(FeatureOptions{}, time.Minute)
	warm(se.Add, func() *StreamExtractor { return se })
	measure("StreamExtractor", se.Add)

	sh := NewShardedExtractorSkew(FeatureOptions{}, 4, time.Minute)
	warm(sh.Add, func() *StreamExtractor { return sh.shardOf(host).ex })
	measure("ShardedExtractor", sh.Add)
}
