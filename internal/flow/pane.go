package flow

import (
	"sort"
	"time"
)

// Pane is one sealed accumulation interval's raw per-host state: the
// feature builders detached from a StreamExtractor at a pane boundary.
// A tumbling detection window is a single pane; a sliding window is the
// merge of its last Window/Slide panes. Panes keep each host's contact
// table (first and latest start per destination) alive so MergePanes
// can stitch adjacent panes back together exactly (peer de-duplication
// and cross-pane interstitial gaps included).
type Pane struct {
	builders map[IP]*featureBuilder
	window   Window
}

// Window returns the interval the pane covers.
func (p *Pane) Window() Window { return p.window }

// Hosts returns the number of hosts the pane accumulated.
func (p *Pane) Hosts() int { return len(p.builders) }

// Features returns the pane's per-host features directly (no copy).
// This is the tumbling fast path: a single-pane window's live features
// are already exactly what batch extraction over the pane's records
// would produce. The returned map and values alias the pane's state —
// callers that will merge the pane into later windows must use
// MergePanes instead.
func (p *Pane) Features() map[IP]*HostFeatures {
	out := make(map[IP]*HostFeatures, len(p.builders))
	for ip, b := range p.builders {
		out[ip] = b.feats
	}
	return out
}

// Contacts returns the pane's per-host contacted-destination sets in
// ascending address order — the keys of the per-destination tables the
// pane keeps alive for merging anyway, exposed for flow-graph detectors.
func (p *Pane) Contacts() map[IP][]IP {
	return contactsOfBuilders(p.builders)
}

// FeatureSet wraps the pane's features (contact sets included) as a
// FeatureSource.
func (p *Pane) FeatureSet() *FeatureSet {
	return NewFeatureSet(p.Features(), p.window).WithContacts(p.Contacts())
}

// MergePanes recomputes the features a batch extraction over the panes'
// combined records would produce, without the records. Counters sum;
// per-destination first contacts de-duplicate across panes (a peer
// re-contacted in a later pane is not counted again); the new-peer grace
// period re-anchors at the host's earliest activity across the merged
// panes; and cross-pane interstitial gaps (last start to a destination
// in one pane → first start to it in a later pane) are restored, so the
// merged Interstitials hold exactly the multiset of consecutive
// same-destination gaps of the combined stream. Only the ordering of
// Interstitials may differ from a true batch extraction (pane-major
// instead of time-major); every downstream consumer is
// order-insensitive (θ_hm builds a histogram).
//
// Panes must be passed in time order. grace ≤ 0 means
// DefaultNewPeerGrace.
func MergePanes(grace time.Duration, panes ...*Pane) *FeatureSet {
	if grace <= 0 {
		grace = DefaultNewPeerGrace
	}
	nonEmpty := panes[:0:0]
	var window Window
	for _, p := range panes {
		if p == nil {
			continue
		}
		if window == (Window{}) {
			window = p.window
		} else {
			if p.window.From.Before(window.From) {
				window.From = p.window.From
			}
			if p.window.To.After(window.To) {
				window.To = p.window.To
			}
		}
		if len(p.builders) > 0 {
			nonEmpty = append(nonEmpty, p)
		}
	}
	if len(nonEmpty) == 1 {
		// Single populated pane: its live features are already exact.
		return NewFeatureSet(nonEmpty[0].Features(), window).
			WithContacts(nonEmpty[0].Contacts())
	}

	type hostMerge struct {
		feats    *HostFeatures
		contacts map[IP]contact // destination -> earliest contact and latest start across panes
	}
	merged := make(map[IP]*hostMerge)
	for _, p := range nonEmpty {
		for ip, b := range p.builders {
			m, ok := merged[ip]
			if !ok {
				m = &hostMerge{
					feats: &HostFeatures{
						Host:      ip,
						FirstSeen: b.feats.FirstSeen,
						LastSeen:  b.feats.LastSeen,
					},
					contacts: make(map[IP]contact, len(b.contacts)),
				}
				merged[ip] = m
			}
			f := m.feats
			f.Flows += b.feats.Flows
			f.SuccessfulFlows += b.feats.SuccessfulFlows
			f.FailedFlows += b.feats.FailedFlows
			f.BytesUploaded += b.feats.BytesUploaded
			if b.feats.FirstSeen.Before(f.FirstSeen) {
				f.FirstSeen = b.feats.FirstSeen
			}
			if b.feats.LastSeen.After(f.LastSeen) {
				f.LastSeen = b.feats.LastSeen
			}
			// Pane-internal gaps survive as-is; the boundary gap between
			// the previous pane's last start to a destination and this
			// pane's first contact with it is reconstructed here.
			f.Interstitials = append(f.Interstitials, b.feats.Interstitials...)
			for dst, c := range b.contacts {
				cur, ok := m.contacts[dst]
				if !ok {
					m.contacts[dst] = c
					continue
				}
				f.Interstitials = append(f.Interstitials, time.Duration(c.first-cur.last).Seconds())
				cur.first = min(cur.first, c.first)
				cur.last = max(cur.last, c.last)
				m.contacts[dst] = cur
			}
		}
	}

	out := make(map[IP]*HostFeatures, len(merged))
	contacts := make(map[IP][]IP, len(merged))
	for ip, m := range merged {
		f := m.feats
		f.Peers = len(m.contacts)
		f.NewPeers = 0
		firstSeen := f.FirstSeen.UnixNano()
		dsts := make([]IP, 0, len(m.contacts))
		for dst, c := range m.contacts {
			dsts = append(dsts, dst)
			if time.Duration(c.first-firstSeen) > grace {
				f.NewPeers++
			}
		}
		sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
		out[ip] = f
		contacts[ip] = dsts
	}
	return NewFeatureSet(out, window).WithContacts(contacts)
}

// MergeFeatureMaps combines disjoint per-host feature maps (e.g. the
// per-shard snapshots of a ShardedExtractor) into one. Hosts must not
// repeat across maps; a repeated host keeps the last map's entry.
func MergeFeatureMaps(maps ...map[IP]*HostFeatures) map[IP]*HostFeatures {
	total := 0
	for _, m := range maps {
		total += len(m)
	}
	out := make(map[IP]*HostFeatures, total)
	for _, m := range maps {
		for ip, f := range m {
			out[ip] = f
		}
	}
	return out
}
