package flow

import (
	"fmt"
	"time"

	"plotters/internal/metrics"
)

// StreamExtractor computes the same per-host features as ExtractFeatures
// incrementally, one record at a time — the shape a deployment at a busy
// border needs, where the day's records never sit in memory at once.
//
// Feature semantics are defined over start-time order, but flow monitors
// emit records at flow *end*, so a live feed arrives only approximately
// start-ordered. Set FeatureOptions via NewStreamExtractor and a MaxSkew
// via NewStreamExtractorSkew to buffer records in a small start-ordered
// heap: a record is processed once the feed has advanced MaxSkew past
// its start time, which tolerates exactly the reordering a flow
// monitor's expiry timers introduce. With zero skew, records must arrive
// strictly start-ordered.
type StreamExtractor struct {
	opts     FeatureOptions
	grace    time.Duration
	maxSkew  time.Duration
	builders map[IP]*featureBuilder
	anchors  map[IP]time.Time // host -> carried first-seen (nil = off)
	pending  recordHeap
	first    time.Time // earliest start time seen
	frontier time.Time // latest start time seen
	released time.Time // start time up to which records were processed
	count    int
	seq      uint64

	// Instrumentation (nil-safe no-ops until Metrics is called).
	recCtr    *metrics.Counter
	dropCtr   *metrics.Counter
	pendingHW *metrics.Gauge
	hostCtr   *metrics.Gauge
}

// NewStreamExtractor creates an incremental extractor requiring
// start-ordered input.
func NewStreamExtractor(opts FeatureOptions) *StreamExtractor {
	return NewStreamExtractorSkew(opts, 0)
}

// NewStreamExtractorSkew creates an incremental extractor tolerating
// records up to maxSkew out of start order.
func NewStreamExtractorSkew(opts FeatureOptions, maxSkew time.Duration) *StreamExtractor {
	grace := opts.NewPeerGrace
	if grace <= 0 {
		grace = DefaultNewPeerGrace
	}
	if maxSkew < 0 {
		maxSkew = 0
	}
	return &StreamExtractor{
		opts:     opts,
		grace:    grace,
		maxSkew:  maxSkew,
		builders: make(map[IP]*featureBuilder),
	}
}

// Metrics attaches reg's instruments to the extractor: the
// "stream/records" counter (records accepted), "stream/skew_drops"
// counter (records rejected for arriving more than MaxSkew late),
// "stream/pending_highwater" gauge (deepest the reorder buffer got),
// and "stream/hosts" gauge (distinct initiators tracked). A nil reg
// detaches. Returns se for chaining.
func (se *StreamExtractor) Metrics(reg *metrics.Registry) *StreamExtractor {
	se.recCtr = reg.Counter("stream/records")
	se.dropCtr = reg.Counter("stream/skew_drops")
	se.pendingHW = reg.Gauge("stream/pending_highwater")
	se.hostCtr = reg.Gauge("stream/hosts")
	return se
}

// Add folds one record into the running features. Records may arrive up
// to MaxSkew out of start-time order; older records are rejected.
func (se *StreamExtractor) Add(r *Record) error {
	if r.Start.Before(se.released) {
		se.dropCtr.Add(1)
		return fmt.Errorf("flow: record at %v is more than %v behind the stream frontier %v",
			r.Start, se.maxSkew, se.frontier)
	}
	se.count++
	se.recCtr.Add(1)
	if se.count == 1 || r.Start.Before(se.first) {
		se.first = r.Start
	}
	if r.Start.After(se.frontier) {
		se.frontier = r.Start
	}
	o := observationOf(r)
	if se.maxSkew == 0 {
		se.released = r.Start
		se.process(&o)
		return nil
	}
	se.seq++
	o.seq = se.seq
	se.pending.push(o)
	se.pendingHW.SetMax(int64(len(se.pending)))
	se.release(se.frontier.Add(-se.maxSkew))
	return nil
}

// release processes buffered records with start times up to watermark.
func (se *StreamExtractor) release(watermark time.Time) {
	for len(se.pending) > 0 && !se.pending[0].start.After(watermark) {
		o := se.pending.pop()
		se.released = o.start
		se.process(&o)
	}
}

// Drain processes every buffered record (end of feed).
func (se *StreamExtractor) Drain() {
	se.release(se.frontier)
}

// ReleaseBefore force-processes every buffered record with a start time
// strictly before t and then forbids records earlier than t: subsequent
// Add calls with start < t are rejected as skew drops. This is the
// window-sealing primitive — the engine calls it at a pane boundary once
// the stream frontier proves no conforming record below t can still
// arrive, so records at or past t stay buffered for the next pane.
func (se *StreamExtractor) ReleaseBefore(t time.Time) {
	for len(se.pending) > 0 && se.pending[0].start.Before(t) {
		o := se.pending.pop()
		se.released = o.start
		se.process(&o)
	}
	if t.After(se.released) {
		se.released = t
	}
}

// CarryFirstSeen enables (or, with false, disables) first-seen carrying
// across panes: when a host reappears after TakePane, its new builder's
// grace period stays anchored at the host's earliest activity ever seen,
// matching what a batch extraction over the whole stream would anchor —
// instead of restarting the θ_churn warm-up every window.
func (se *StreamExtractor) CarryFirstSeen(on bool) {
	if on && se.anchors == nil {
		se.anchors = make(map[IP]time.Time)
	} else if !on {
		se.anchors = nil
	}
}

// TakePane detaches the accumulated builders as a sealed Pane covering w
// and resets the extractor for the next pane. Buffered (pending) records
// are untouched — call ReleaseBefore(w.To) first so everything belonging
// to the pane has been processed. When first-seen carrying is enabled,
// each detached host's earliest activity is remembered and re-anchors
// the host's grace period in later panes.
func (se *StreamExtractor) TakePane(w Window) *Pane {
	builders := se.builders
	se.builders = make(map[IP]*featureBuilder)
	se.hostCtr.Set(0)
	if se.anchors != nil {
		for ip, b := range builders {
			if cur, ok := se.anchors[ip]; !ok || b.feats.FirstSeen.Before(cur) {
				se.anchors[ip] = b.feats.FirstSeen
			}
		}
	}
	return &Pane{builders: builders, window: w}
}

func (se *StreamExtractor) process(o *observation) {
	if se.opts.Hosts != nil && !se.opts.Hosts(o.src) {
		return
	}
	b, ok := se.builders[o.src]
	if !ok {
		first := o.start
		if anchor, ok := se.anchors[o.src]; ok && anchor.Before(first) {
			first = anchor
		}
		b = newFeatureBuilder(o.src, first)
		se.builders[o.src] = b
		se.hostCtr.Set(int64(len(se.builders)))
	}
	b.observe(o, se.grace)
}

// Records returns how many records have been accepted (including ones
// still buffered).
func (se *StreamExtractor) Records() int { return se.count }

// Pending returns how many records are buffered awaiting the watermark.
func (se *StreamExtractor) Pending() int { return len(se.pending) }

// Hosts returns how many distinct initiators have been processed.
func (se *StreamExtractor) Hosts() int { return len(se.builders) }

// Snapshot returns the current per-host features (excluding buffered
// records; call Drain first at end of feed). The returned map and its
// values are live views — callers must not mutate them and must not
// interleave reads with Add calls from other goroutines.
func (se *StreamExtractor) Snapshot() map[IP]*HostFeatures {
	out := make(map[IP]*HostFeatures, len(se.builders))
	for ip, b := range se.builders {
		out[ip] = b.feats
	}
	return out
}

// Features implements FeatureSource over the current state (a live
// view, like Snapshot).
func (se *StreamExtractor) Features() map[IP]*HostFeatures { return se.Snapshot() }

// Contacts implements ContactSource over the current state: each host's
// contacted destinations so far, in ascending address order. Like
// Snapshot, reads must not interleave with Add calls from other
// goroutines.
func (se *StreamExtractor) Contacts() map[IP][]IP {
	return contactsOfBuilders(se.builders)
}

// Window implements FeatureSource: the span of processed start times,
// half-open past the frontier. Zero until a record has been processed.
func (se *StreamExtractor) Window() Window {
	if se.count == 0 {
		return Window{}
	}
	return Window{From: se.first, To: se.frontier.Add(1)}
}

// observation is one record reduced to the fields feature extraction
// reads. The reorder buffer holds these rather than whole Records: 56
// bytes each, and no Payload kept alive for MaxSkew. seq keeps
// same-start ties in arrival order so the skewed stream reproduces the
// batch extractor exactly. start stays a time.Time so FirstSeen,
// LastSeen and the release watermark keep their exact values.
type observation struct {
	start    time.Time
	seq      uint64
	srcBytes uint64
	src, dst IP
	failed   bool
}

func observationOf(r *Record) observation {
	return observation{start: r.Start, srcBytes: r.SrcBytes, src: r.Src, dst: r.Dst, failed: r.Failed()}
}

// record rebuilds a Record carrying the observation's fields, for
// snapshots; the fields extraction never reads are left zero (End is
// set to Start so the record stays well formed).
func (o *observation) record() Record {
	state := StateEstablished
	if o.failed {
		state = StateFailed
	}
	return Record{Src: o.src, Dst: o.dst, Start: o.start, End: o.start, SrcBytes: o.srcBytes, State: state}
}

// before is the buffer's strict total order: start time, then arrival.
func (o *observation) before(p *observation) bool {
	if !o.start.Equal(p.start) {
		return o.start.Before(p.start)
	}
	return o.seq < p.seq
}

// recordHeap is a binary min-heap of observations by (start, seq),
// typed so that pushing and popping never box an entry.
type recordHeap []observation

func (h *recordHeap) push(o observation) {
	*h = append(*h, o)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q[i].before(&q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *recordHeap) pop() observation {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < n && q[l].before(&q[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && q[r].before(&q[least]) {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	*h = q
	return top
}

// observe folds one observation into a host's builder. Shared by the
// batch and streaming extractors so their semantics cannot drift.
func (b *featureBuilder) observe(o *observation, grace time.Duration) {
	f := b.feats
	f.Flows++
	if o.failed {
		f.FailedFlows++
	} else {
		f.SuccessfulFlows++
	}
	f.BytesUploaded += o.srcBytes
	if o.start.After(f.LastSeen) {
		f.LastSeen = o.start
	}
	start := o.start.UnixNano()
	c, seen := b.contacts[o.dst]
	if seen {
		f.Interstitials = append(f.Interstitials, time.Duration(start-c.last).Seconds())
	} else {
		c.first = start
		f.Peers++
		if o.start.Sub(f.FirstSeen) > grace {
			f.NewPeers++
		}
	}
	c.last = start
	b.contacts[o.dst] = c
}
