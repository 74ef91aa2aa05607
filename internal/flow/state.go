package flow

import (
	"fmt"
	"sort"
	"time"
)

// This file is the durable-state seam of the feature layer: exported,
// plain-data snapshots of the incremental extractors' internal state, so
// internal/checkpoint can persist a live deployment and restore it
// bit-identically after a crash. The types mirror the unexported
// accumulation structures (featureBuilder's contact table, the reorder
// heap, the first-seen anchors); State() detaches a deep copy,
// RestoreState() rebuilds the originals inside a freshly constructed
// extractor. Configuration (FeatureOptions, shard count, skew) is never
// part of the state — the restoring caller constructs the extractor
// with the same configuration, and the checkpoint layer pins that
// equality in its metadata.

// HostTime pairs an address with a timestamp — one entry of a
// per-destination first-contact or last-start table, or one first-seen
// anchor.
type HostTime struct {
	Host IP
	Time time.Time
}

// HostState is one host's accumulated feature-builder state: the
// features themselves plus the per-destination tables that let later
// records extend them (peer de-duplication and interstitial gaps).
type HostState struct {
	Feats        HostFeatures
	FirstContact []HostTime // destination -> first contact, ascending by Host
	LastStart    []HostTime // destination -> latest flow start, ascending by Host
}

// PendingState is one record buffered in the reorder heap, with the
// arrival sequence number that keeps same-start ties in arrival order.
type PendingState struct {
	Rec Record
	Seq uint64
}

// StreamState is a complete snapshot of one StreamExtractor's dynamic
// state. Slices are ordered deterministically (hosts and anchors by
// address, pending by (start, seq)) so the same extractor state always
// serializes to the same bytes.
type StreamState struct {
	First    time.Time
	Frontier time.Time
	Released time.Time
	Count    int
	Seq      uint64
	Hosts    []HostState
	Anchors  []HostTime // carried first-seen anchors (empty when off)
	Pending  []PendingState
}

// ShardedState is a complete snapshot of a ShardedExtractor: one
// StreamState per shard, in shard order. Restoring requires the same
// shard count (the shard hash is deterministic, so equal counts mean
// every host lands back on the shard that accumulated it).
type ShardedState struct {
	Shards []StreamState
}

// PaneState is a serializable sealed pane: its window plus every
// detached host builder.
type PaneState struct {
	Window Window
	Hosts  []HostState
}

// hostTimesFromMap flattens a map into address-sorted HostTime pairs.
func hostTimesFromMap(m map[IP]time.Time) []HostTime {
	if len(m) == 0 {
		return nil
	}
	out := make([]HostTime, 0, len(m))
	for ip, t := range m {
		out = append(out, HostTime{Host: ip, Time: t})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Host < out[j].Host })
	return out
}

// hostTimesToMap rebuilds the map form.
func hostTimesToMap(entries []HostTime) map[IP]time.Time {
	m := make(map[IP]time.Time, len(entries))
	for _, e := range entries {
		m[e.Host] = e.Time
	}
	return m
}

// contactTimes flattens one side of a contact table into address-sorted
// HostTime pairs.
func contactTimes(contacts map[IP]contact, at func(contact) int64) []HostTime {
	if len(contacts) == 0 {
		return nil
	}
	out := make([]HostTime, 0, len(contacts))
	for ip, c := range contacts {
		out = append(out, HostTime{Host: ip, Time: time.Unix(0, at(c)).UTC()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Host < out[j].Host })
	return out
}

// stateOfBuilders snapshots a builder map as address-sorted HostStates,
// deep-copying every slice and table so the snapshot stays valid while
// the live extractor keeps accumulating.
func stateOfBuilders(builders map[IP]*featureBuilder) []HostState {
	if len(builders) == 0 {
		return nil
	}
	hosts := make([]IP, 0, len(builders))
	for ip := range builders {
		hosts = append(hosts, ip)
	}
	sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
	out := make([]HostState, len(hosts))
	for i, ip := range hosts {
		b := builders[ip]
		hs := HostState{
			Feats:        *b.feats,
			FirstContact: contactTimes(b.contacts, func(c contact) int64 { return c.first }),
			LastStart:    contactTimes(b.contacts, func(c contact) int64 { return c.last }),
		}
		hs.Feats.Interstitials = append([]float64(nil), b.feats.Interstitials...)
		out[i] = hs
	}
	return out
}

// buildersFromState rebuilds the live builder map, joining each host's
// first-contact and last-start lists back into one contact table.
func buildersFromState(hosts []HostState) map[IP]*featureBuilder {
	builders := make(map[IP]*featureBuilder, len(hosts))
	for i := range hosts {
		hs := &hosts[i]
		feats := hs.Feats
		feats.Interstitials = append([]float64(nil), hs.Feats.Interstitials...)
		contacts := make(map[IP]contact, len(hs.FirstContact))
		for _, ht := range hs.FirstContact {
			c := contacts[ht.Host]
			c.first = ht.Time.UnixNano()
			contacts[ht.Host] = c
		}
		for _, ht := range hs.LastStart {
			c := contacts[ht.Host]
			c.last = ht.Time.UnixNano()
			contacts[ht.Host] = c
		}
		builders[hs.Feats.Host] = &featureBuilder{feats: &feats, contacts: contacts}
	}
	return builders
}

// State detaches a deep snapshot of the extractor's dynamic state.
// Configuration (FeatureOptions, MaxSkew) is not included; restore into
// an extractor constructed with the same configuration.
func (se *StreamExtractor) State() *StreamState {
	st := &StreamState{
		First:    se.first,
		Frontier: se.frontier,
		Released: se.released,
		Count:    se.count,
		Seq:      se.seq,
		Hosts:    stateOfBuilders(se.builders),
		Anchors:  hostTimesFromMap(se.anchors),
	}
	if len(se.pending) > 0 {
		ordered := append(recordHeap(nil), se.pending...)
		sort.Slice(ordered, func(i, j int) bool { return ordered[i].before(&ordered[j]) })
		st.Pending = make([]PendingState, len(ordered))
		for i := range ordered {
			st.Pending[i] = PendingState{Rec: ordered[i].record(), Seq: ordered[i].seq}
		}
	}
	return st
}

// RestoreState replaces the extractor's dynamic state with a previously
// snapshotted one. The extractor must be freshly constructed (no records
// added) with the same FeatureOptions and MaxSkew as the snapshotted
// one; feature semantics would silently diverge otherwise, so a
// non-empty extractor is rejected.
func (se *StreamExtractor) RestoreState(st *StreamState) error {
	if se.count != 0 || len(se.builders) != 0 || len(se.pending) != 0 {
		return fmt.Errorf("flow: RestoreState on an extractor that already holds %d records", se.count)
	}
	se.first = st.First
	se.frontier = st.Frontier
	se.released = st.Released
	se.count = st.Count
	se.seq = st.Seq
	se.builders = buildersFromState(st.Hosts)
	if se.anchors != nil && len(st.Anchors) > 0 {
		se.anchors = hostTimesToMap(st.Anchors)
	}
	if len(st.Pending) > 0 {
		se.pending = make(recordHeap, 0, len(st.Pending))
		for i := range st.Pending {
			o := observationOf(&st.Pending[i].Rec)
			o.seq = st.Pending[i].Seq
			se.pending.push(o)
		}
	}
	se.hostCtr.Set(int64(len(se.builders)))
	return nil
}

// State detaches a deep snapshot of every shard, locking one shard at a
// time (a concurrent snapshot, like TakePanes — callers that need a
// point-in-time-consistent image across shards must quiesce ingest).
func (se *ShardedExtractor) State() *ShardedState {
	st := &ShardedState{Shards: make([]StreamState, len(se.shards))}
	for i := range se.shards {
		s := &se.shards[i]
		s.mu.Lock()
		st.Shards[i] = *s.ex.State()
		s.mu.Unlock()
	}
	return st
}

// RestoreState restores every shard from a ShardedState snapshot. The
// store must be freshly constructed with the same shard count as the
// snapshotted one — the shard hash is deterministic, so an equal count
// puts every host back on the shard whose frontier it advanced.
func (se *ShardedExtractor) RestoreState(st *ShardedState) error {
	if len(st.Shards) != len(se.shards) {
		return fmt.Errorf("flow: snapshot has %d shards, store has %d (restore with the snapshotted shard count)",
			len(st.Shards), len(se.shards))
	}
	for i := range se.shards {
		s := &se.shards[i]
		s.mu.Lock()
		err := s.ex.RestoreState(&st.Shards[i])
		s.mu.Unlock()
		if err != nil {
			return fmt.Errorf("flow: shard %d: %w", i, err)
		}
	}
	return nil
}

// State detaches a deep snapshot of the sealed pane.
func (p *Pane) State() *PaneState {
	return &PaneState{Window: p.window, Hosts: stateOfBuilders(p.builders)}
}

// NewPaneFromState rebuilds a sealed pane from its snapshot.
func NewPaneFromState(st *PaneState) *Pane {
	return &Pane{builders: buildersFromState(st.Hosts), window: st.Window}
}
