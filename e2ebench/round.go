package main

import (
	"context"
	"errors"
	"net"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"plotters"
)

// inflightPackets is the closed loop's window: the generator keeps at
// most this many datagrams sent but not yet decoded. It stays far
// below the collector queue (4096), so a drop is always a failure and
// never the loop's backpressure.
const inflightPackets = 64

// stallTimeout ends the generator's wait for a collector that makes no
// progress: far longer than any detection the handler runs here, so
// only input lost without a trace in the collector's counters (such as
// the last datagram of a round, lost in the kernel) ever reaches it.
const stallTimeout = 2 * time.Second

// exporterName labels injected datagrams (the socket path uses the
// kernel's source address instead).
const exporterName = "127.0.0.1:9995"

// faults are the harness self-test's deliberate failures; the zero
// value injects none.
type faults struct {
	corrupt  int // truncate this packet before sending (0 = none)
	overflow int // hold the handler and burst past the queue at this packet (0 = none)
	queue    int // collector queue size (0 = the collector default)
}

// roundResult is one replay of every pass from the first datagram sent
// to the last verdict emitted.
type roundResult struct {
	sent       int64         // records sent
	wall       time.Duration // first datagram sent → last verdict emitted
	build      time.Duration // pipeline construction
	verdicts   []verdict
	latencies  []time.Duration
	lost       int64  // records sent but never decoded (dropped, malformed, lost)
	drops      int    // engine late drops
	peakLive   uint64 // heap probe rounds only: peak /gc/heap/live:bytes
	mallocs    uint64
	allocBytes uint64
	snap       plotters.MetricsSnapshot
	trace      *tracer
}

// liveHeap reads /gc/heap/live:bytes, the heap marked live by the last
// completed GC.
type liveHeap struct{ s []metrics.Sample }

func newLiveHeap() *liveHeap {
	return &liveHeap{s: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

func (l *liveHeap) read() uint64 {
	metrics.Read(l.s)
	return l.s[0].Value.Uint64()
}

// runRound builds a fresh collector → engine → detectors pipeline and
// replays the corpus through it once. With traced set, the core, the
// community detector and the engine share the collector's registry
// and the benchmark records spans at its own call sites; otherwise only
// the collector gets a registry, for the flow-control and failure
// counters. With probeHeap set, every emit forces a collection and
// samples the live heap: the round's peak is measured, but its timings
// are not representative.
func runRound(c *corpus, traced, probeHeap bool, f faults) (*roundResult, error) {
	rr := &roundResult{}
	heap := newLiveHeap()
	var tr *tracer
	var wl, gl *lane // nil lanes record nothing
	if traced {
		tr = &tracer{}
		rr.trace = tr
		wl, gl = &tr.worker, &tr.gen
	}

	t0 := time.Now()
	reg := plotters.NewMetrics()
	var coreReg *plotters.Metrics
	if traced {
		coreReg = reg
	}
	pcfg := plotters.DefaultConfig()
	pcfg.Metrics = coreReg
	pd, err := plotters.NewPaperDetector(pcfg)
	if err != nil {
		return nil, err
	}
	ccfg := plotters.DefaultCommunityConfig()
	ccfg.Metrics = coreReg
	cd, err := plotters.NewCommunityDetector(ccfg)
	if err != nil {
		return nil, err
	}
	dets := []plotters.Detector{pd, cd}
	if traced {
		dets = []plotters.Detector{tracedDetector{pd, wl, spanPaper}, tracedDetector{cd, wl, spanCommunity}}
	}

	// sendNS[p] is when packet p left the generator, advanceNS when the
	// final AdvanceTo began, both in ns since base: the triggers a
	// window's verdict latency is measured from. A round's wall time
	// starts at sendNS[0].
	sendNS := make([]atomic.Int64, len(c.packets))
	var advanceNS int64
	var base, lastEmit time.Time
	emit := func(res *plotters.WindowResult) error {
		s := wl.begin(spanEmit)
		now := time.Now()
		lastEmit = now
		rr.verdicts = append(rr.verdicts, summarize(res))
		if i := res.Index; i >= 0 && i < len(c.triggers) {
			trig := advanceNS
			if p := c.triggers[i]; p >= 0 {
				trig = sendNS[p].Load()
			}
			rr.latencies = append(rr.latencies, now.Sub(base)-time.Duration(trig))
		}
		if probeHeap {
			// The sealed window's features and verdicts are still live
			// here, so a collection now measures the pipeline's peak
			// live state.
			runtime.GC()
			rr.peakLive = max(rr.peakLive, heap.read())
			runtime.KeepAlive(res)
		}
		wl.end(s)
		return nil
	}
	eng, err := plotters.NewWindowedDetector(plotters.EngineConfig{
		Window:    c.windowLen(),
		Slide:     c.w.slide,
		Origin:    c.origin,
		MaxSkew:   maxSkew,
		DropLate:  true,
		Internal:  plotters.IsInternal,
		Core:      pcfg,
		Detectors: dets,
	}, emit)
	if err != nil {
		return nil, err
	}
	var addErr error
	var hold atomic.Bool // self-test only: once set, the handler waits for release
	release := make(chan struct{})
	col, err := plotters.ListenNetFlow(plotters.CollectorConfig{
		Addr:       "127.0.0.1:0",
		Workers:    1,
		QueueSize:  f.queue,
		ReadBuffer: 4 << 20,
		SampleN:    c.w.sampleN,
		SampleSeed: uint64(c.seed),
		Metrics:    reg,
		Handler: func(recs []plotters.Record) {
			if f.overflow > 0 && hold.Load() {
				<-release
			}
			s := wl.begin(spanHandler)
			for i := range recs {
				if err := eng.Add(&recs[i]); err != nil && addErr == nil {
					addErr = err
				}
			}
			wl.end(s)
		},
	})
	if err != nil {
		return nil, err
	}
	rr.build = time.Since(t0)

	// base is set before the collector's goroutines start, so they read
	// it (and the lanes' copies) without further synchronization.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	base = time.Now()
	if tr != nil {
		tr.worker.base, tr.gen.base = base, base
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- col.Run(ctx) }()
	var conn net.Conn
	if c.w.socket {
		if conn, err = net.Dial("udp", col.Addr().String()); err != nil {
			cancel()
			<-runDone
			return nil, err
		}
		defer conn.Close()
	}

	decoded := reg.Counter("collector/records").Value
	sampledOut := reg.Counter("collector/records/sampled_out").Value
	failedPkts := []func() int64{
		reg.Counter("collector/packets/dropped").Value,
		reg.Counter("collector/packets/malformed").Value,
		reg.Counter("collector/packets/unknown_version").Value,
	}
	lostPkts := reg.Counter("collector/seq/lost_packets").Value
	lostFlows := reg.Counter("collector/seq/lost_flows").Value
	done := func() int64 { return decoded() + sampledOut() }
	// lost estimates the records that will never be decoded: packets
	// the collector failed (each counted as a full one), or the gaps its
	// sequence accounting saw (which also catches datagrams lost in the
	// kernel), whichever is larger — a failed packet shows up in both.
	lost := func() int64 {
		var bad int64
		for _, v := range failedPkts {
			bad += v()
		}
		return max(bad*maxRecordsPerPacket, lostPkts()*maxRecordsPerPacket+lostFlows())
	}
	// wait blocks until at most limit of the sent records are still in
	// flight: neither decoded, nor sampled out, nor lost. A stall of
	// stallTimeout without progress ends the wait early; whatever is
	// still missing then counts as failed.
	wait := func(sent, limit int64) {
		last, since := int64(-1), time.Now()
		for {
			d := done()
			if sent-d-lost() <= limit {
				return
			}
			if d != last {
				last, since = d, time.Now()
			}
			if time.Since(since) > stallTimeout {
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	var sent int64
	var werr error
	send := func(p int) {
		pkt := c.packets[p]
		if p == f.corrupt && f.corrupt > 0 {
			pkt = pkt[:len(pkt)-7]
		}
		s := gl.begin(spanSend)
		sendNS[p].Store(int64(time.Since(base)))
		if conn != nil {
			if _, err := conn.Write(pkt); err != nil && werr == nil {
				werr = err
			}
		} else {
			col.Inject(pkt, exporterName)
		}
		gl.end(s)
		sent += int64(c.counts[p])
	}
	for p := 0; p < len(c.packets) && werr == nil; p++ {
		if p == f.overflow && f.overflow > 0 {
			// Hold the handler on the next packet, then burst past the
			// queue and the buffer ring behind it.
			wait(sent, 0)
			hold.Store(true)
			for end := min(len(c.packets), p+f.queue+2*inflightPackets); p < end; p++ {
				send(p)
			}
			p--
			close(release)
			continue
		}
		wait(sent, inflightPackets*maxRecordsPerPacket)
		send(p)
	}
	wait(sent, 0)
	cancel()
	if err := <-runDone; err != nil && werr == nil {
		werr = err
	}
	if tr != nil {
		tr.drained = int64(time.Since(base))
	}
	if werr != nil {
		return nil, werr
	}
	s := wl.begin(spanAdvance)
	advanceNS = int64(time.Since(base))
	err = eng.AdvanceTo(c.end)
	wl.end(s)
	if err != nil {
		return nil, err
	}
	if addErr != nil {
		return nil, addErr
	}
	rr.wall = lastEmit.Sub(base) - time.Duration(sendNS[0].Load())
	runtime.ReadMemStats(&ms1)
	if probeHeap {
		runtime.GC()
		rr.peakLive = max(rr.peakLive, heap.read())
	}
	rr.sent = sent
	rr.lost = sent - done()
	rr.drops = eng.Dropped()
	rr.mallocs = ms1.Mallocs - ms0.Mallocs
	rr.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	rr.snap = reg.TakeSnapshot()
	if len(rr.verdicts) == 0 {
		return nil, errors.New("no window was emitted")
	}
	return rr, nil
}

// maxRecordsPerPacket is the export writers' batch size: a failed
// packet is counted as this many records in flight.
const maxRecordsPerPacket = 30
