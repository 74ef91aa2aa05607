package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"plotters"
)

// spanKind names a call site in the benchmark. Spans are recorded only
// around the benchmark's own calls into the program; nothing inside the
// program is instrumented beyond the registry timers it already has.
type spanKind uint8

const (
	spanSend      spanKind = iota // one datagram: socket write or Collector.Inject
	spanHandler                   // one collector Handler call: engine.Add per record
	spanAdvance                   // the final AdvanceTo that closes the last pass
	spanPaper                     // one paper-pipeline Detect
	spanCommunity                 // one community Detect
	spanEmit                      // one verdict emit
)

var spanNames = [...]string{"send", "handler", "advance", "detect.paper", "detect.community", "emit"}

// span is one timed call. Times are nanoseconds since the round's
// base, taken just before the collector started.
type span struct {
	kind       spanKind
	parent     int32 // enclosing span in the same lane, -1 for none
	start, end int64
}

// lane records the spans of one goroutine (or of goroutines that hand
// off strictly in sequence). A nil lane records nothing.
type lane struct {
	base  time.Time
	spans []span
	open  []int32
}

func (l *lane) begin(k spanKind) int32 {
	if l == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, span{kind: k, parent: parent, start: int64(time.Since(l.base))})
	i := int32(len(l.spans) - 1)
	l.open = append(l.open, i)
	return i
}

func (l *lane) end(i int32) {
	if l == nil {
		return
	}
	l.spans[i].end = int64(time.Since(l.base))
	l.open = l.open[:len(l.open)-1]
}

// tracer holds one traced round's spans: the worker lane (Handler
// calls with the detects and emits nested in them, then the final
// AdvanceTo once the collector has drained) and the generator lane
// (datagram sends, concurrent with the worker).
type tracer struct {
	worker, gen lane
	drained     int64 // when the collector's Run returned
}

// tracedDetector times each Detect call of the detector it wraps.
type tracedDetector struct {
	plotters.Detector
	lane *lane
	kind spanKind
}

func (d tracedDetector) Detect(src plotters.FeatureSource) (*plotters.Detection, error) {
	s := d.lane.begin(d.kind)
	defer d.lane.end(s)
	return d.Detector.Detect(src)
}

// layerTimes is one traced round's wall time split by layer. The
// critical path is the single decode worker: from the first send to
// the collector's drain it alternates between decoding (collector) and
// Handler calls; then the final AdvanceTo seals the last pass.
type layerTimes struct {
	wall       time.Duration // first send → end of the final AdvanceTo
	collector  time.Duration // worker time outside Handler calls: decode, sampling, queue
	engine     time.Duration // Handler + AdvanceTo, minus the detects and emits nested in them
	paper      time.Duration
	community  time.Duration
	emit       time.Duration
	unattrib   time.Duration // wall minus every layer above
	paperRuns  []time.Duration
	communRuns []time.Duration
}

func (t *tracer) layers() layerTimes {
	var lt layerTimes
	var handler, advance time.Duration
	var advanceEnd int64
	for _, s := range t.worker.spans {
		d := time.Duration(s.end - s.start)
		switch s.kind {
		case spanHandler:
			handler += d
		case spanAdvance:
			advance += d
			advanceEnd = s.end
		case spanPaper:
			lt.paper += d
			lt.paperRuns = append(lt.paperRuns, d)
		case spanCommunity:
			lt.community += d
			lt.communRuns = append(lt.communRuns, d)
		case spanEmit:
			lt.emit += d
		}
	}
	first := t.gen.spans[0].start // the first send
	lt.wall = time.Duration(advanceEnd - first)
	lt.collector = time.Duration(t.drained-first) - handler
	lt.engine = handler + advance - lt.paper - lt.community - lt.emit
	lt.unattrib = lt.wall - lt.collector - lt.engine - lt.paper - lt.community - lt.emit
	return lt
}

// writeSpans writes every span of the traced rounds to path, one
// line each: round, lane, span index, parent index, name, start and
// end in nanoseconds since that round's base.
func writeSpans(path string, rounds []*roundResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "round,lane,span,parent,name,start_ns,end_ns")
	for r, rr := range rounds {
		if rr.trace == nil {
			continue
		}
		for _, l := range []struct {
			name  string
			spans []span
		}{{"worker", rr.trace.worker.spans}, {"gen", rr.trace.gen.spans}} {
			for i, s := range l.spans {
				fmt.Fprintf(w, "%d,%s,%d,%d,%s,%d,%d\n", r, l.name, i, s.parent, spanNames[s.kind], s.start, s.end)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
