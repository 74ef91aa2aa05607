package checkpoint_test

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"plotters/internal/checkpoint"
	"plotters/internal/engine"
	"plotters/internal/flow"
)

// An extractor snapshotted with records still in its reorder buffer,
// carried through the snapshot file format and restored, must continue
// exactly like an extractor that never stopped: the buffered records
// come back as compact entries and the contact tables as first/last
// pairs, and neither may change a feature or a contact.
func TestExtractorCheckpointWithPendingRecords(t *testing.T) {
	const skew = 2 * time.Minute
	rng := rand.New(rand.NewSource(43))
	records := synthStream(rng, baseTime(), 90*time.Minute)
	cut := len(records) / 2

	newStore := func() *flow.ShardedExtractor {
		return flow.NewShardedExtractorSkew(flow.FeatureOptions{}, 3, skew)
	}
	feed := func(se *flow.ShardedExtractor, recs []flow.Record) {
		t.Helper()
		for i := range recs {
			if err := se.Add(&recs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}

	uninterrupted := newStore()
	feed(uninterrupted, records)
	uninterrupted.Drain()

	first := newStore()
	feed(first, records[:cut])
	if first.Pending() == 0 {
		t.Fatal("no records in the reorder buffer at the cut; the test would prove nothing")
	}
	data, err := checkpoint.Encode(&checkpoint.Snapshot{Engine: &engine.State{Store: first.State()}})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	resumed := newStore()
	if err := resumed.RestoreState(snap.Engine.Store); err != nil {
		t.Fatal(err)
	}
	if resumed.Pending() != first.Pending() {
		t.Fatalf("restored %d buffered records, snapshotted %d", resumed.Pending(), first.Pending())
	}
	feed(resumed, records[cut:])
	resumed.Drain()

	if !reflect.DeepEqual(resumed.Snapshot(), uninterrupted.Snapshot()) {
		t.Error("features diverged across the checkpoint")
	}
	if !reflect.DeepEqual(resumed.Contacts(), uninterrupted.Contacts()) {
		t.Error("contacts diverged across the checkpoint")
	}
}
