package collector

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"plotters/internal/flow"
	"plotters/internal/ingest"
	"plotters/internal/metrics"
)

// Defaults for Config's zero values.
const (
	// DefaultQueueSize bounds the packet queue between the socket
	// reader and the decode workers.
	DefaultQueueSize = 4096
	// DefaultMaxPacketSize is the largest datagram accepted. NetFlow
	// v5 packets are ≤1464 bytes; 9216 leaves headroom for
	// jumbo-framed v9 exports.
	DefaultMaxPacketSize = 9216
	// DefaultBatch is the receive batch: how many datagrams one
	// recvmmsg(2) call may drain on Linux. 1 falls back to single
	// reads everywhere.
	DefaultBatch = 32
)

// Config shapes a Collector.
type Config struct {
	// Addr is the UDP listen address, e.g. ":2055" (the conventional
	// NetFlow port) or "127.0.0.1:0" (tests). Required.
	Addr string
	// Workers sizes the decode pool (≤0: one per CPU). Callers running
	// a windowed detector usually pass core.Config.Parallelism. With
	// more than one worker, packets may be decoded — and their records
	// delivered — slightly out of arrival order; size the engine's
	// MaxSkew accordingly, or use one worker for strict ordering.
	Workers int
	// QueueSize bounds the ingest queue (≤0: DefaultQueueSize). When
	// the queue is full, packets are counted as dropped and discarded —
	// the socket reader never blocks, so kernel-side loss stays
	// visible in the exporter sequence numbers instead of compounding.
	QueueSize int
	// MaxPacketSize is the receive buffer per datagram (≤0: default).
	// Longer datagrams are truncated by the kernel and will count as
	// malformed.
	MaxPacketSize int
	// Batch is how many datagrams the socket reader may drain per
	// receive call (≤0: DefaultBatch). On Linux, batches arrive via one
	// recvmmsg(2) system call each; elsewhere the value only sizes the
	// buffer ring and reads stay one datagram per call.
	Batch int
	// ReadBuffer, when positive, requests this socket receive buffer
	// size (SO_RCVBUF) — the slack that absorbs packet bursts during a
	// window-boundary detection. Best effort; the kernel may clamp it.
	ReadBuffer int
	// SampleN, when > 1, enables the deterministic flow-sampling stage:
	// 1 in SampleN decoded records is kept (content-hash selection, see
	// ingest.Sampler) and the rest are counted and discarded before the
	// Handler. 0 and 1 keep every record — the default path is
	// bit-identical to an unsampled collector.
	SampleN uint64
	// SampleSeed perturbs the sampling hash so independent deployments
	// keep independent subsets. Only meaningful with SampleN > 1.
	SampleSeed uint64
	// Handler receives each decoded packet's records. Calls are
	// serialized (never concurrent), so a single-writer consumer like
	// engine.WindowedDetector needs no locking of its own. The slice
	// and the records are reused after the call returns — copy
	// anything retained. Required.
	Handler func(records []flow.Record)
	// Metrics, when non-nil, receives the collector's full instrument
	// set under "collector/...". Nil disables instrumentation at zero
	// cost.
	Metrics *metrics.Registry
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Addr == "" {
		return fmt.Errorf("collector: Addr is required")
	}
	if c.Handler == nil {
		return fmt.Errorf("collector: Handler is required")
	}
	return nil
}

// exporterKey identifies one exporter stream for sequence accounting.
type exporterKey struct {
	addr   string
	engine uint16 // v5 engine_type<<8|engine_id, or v9 source / IPFIX domain / sFlow sub-agent ID (low 16)
}

// exporterState tracks per-exporter sequence expectations. The v5/v9
// pairs survive restarts via SequenceStates; the IPFIX and sFlow pairs
// are collector-local (the checkpoint wire format predates them), so a
// restarted collector treats those streams as fresh — which can hide a
// cross-outage gap but can never fabricate one.
type exporterState struct {
	v5Seen    bool
	v5Next    uint32 // expected flow_sequence of the next v5 packet
	v9Seen    bool
	v9Next    uint32 // expected package sequence of the next v9 packet
	ipfixSeen bool
	ipfixNext uint32 // expected sequence (cumulative records) of the next IPFIX message
	sflowSeen bool
	sflowNext uint32 // expected datagram sequence of the next sFlow datagram
}

// Collector ingests flow export packets from a UDP socket: a batched
// reader drains datagrams into a fixed ring of reusable buffers
// (recvmmsg on Linux — see internal/ingest), a worker pool decodes
// them (NetFlow v5/v9, IPFIX, sFlow v5), an optional deterministic
// sampling stage thins the records, and survivors are handed to the
// configured Handler in serialized calls. The steady-state path from
// socket to Handler performs zero allocations per record. Create with
// Listen, drive with Run.
type Collector struct {
	cfg       Config
	conn      *net.UDPConn
	reader    ingest.BatchReader
	ring      *ingest.Ring
	queue     chan *ingest.Buf
	sampler   ingest.Sampler
	templates *TemplateCache

	closeMu sync.RWMutex // guards closed + close(queue) vs. ingest sends
	closed  bool

	emitMu sync.Mutex // serializes Handler calls

	expMu     sync.Mutex
	exporters map[exporterKey]*exporterState

	// Instruments, cached at Listen so the hot path never takes the
	// registry lock. All are nil-safe no-ops without a registry.
	mPackets, mBytes, mRecords        *metrics.Counter
	mMalformed, mUnknownVer, mDropped *metrics.Counter
	mGaps, mLostFlows, mLostPackets   *metrics.Counter
	mResets, mTemplates, mMissingTmpl *metrics.Counter
	mReadErrors, mBatches             *metrics.Counter
	mSampledOut, mEvicted             *metrics.Counter
	mSFlowSkipped, mCorrupt           *metrics.Counter
	gQueueHW, gExporters              *metrics.Gauge
}

// Listen binds the UDP socket and prepares the collector. No packets
// are consumed until Run.
func Listen(cfg Config) (*Collector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = DefaultQueueSize
	}
	if cfg.MaxPacketSize <= 0 {
		cfg.MaxPacketSize = DefaultMaxPacketSize
	}
	if cfg.Batch <= 0 {
		cfg.Batch = DefaultBatch
	}
	addr, err := net.ResolveUDPAddr("udp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("collector: %w", err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("collector: %w", err)
	}
	if cfg.ReadBuffer > 0 {
		// Best effort: a clamped buffer still works, just drops
		// earlier under burst.
		_ = conn.SetReadBuffer(cfg.ReadBuffer)
	}
	reg := cfg.Metrics
	c := &Collector{
		cfg:    cfg,
		conn:   conn,
		reader: ingest.NewBatchReader(conn, cfg.Batch),
		// The ring covers every buffer that can be in flight at once —
		// full queue + one receive batch + one per worker — so the
		// reader always finds a free buffer and backpressure resolves
		// as counted queue drops, never as a blocked socket.
		ring:      ingest.NewRing(cfg.QueueSize+cfg.Batch+cfg.Workers, cfg.MaxPacketSize),
		queue:     make(chan *ingest.Buf, cfg.QueueSize),
		sampler:   ingest.Sampler{N: cfg.SampleN, Seed: cfg.SampleSeed},
		templates: NewTemplateCache(),
		exporters: make(map[exporterKey]*exporterState),

		mPackets:      reg.Counter("collector/packets"),
		mBytes:        reg.Counter("collector/bytes"),
		mRecords:      reg.Counter("collector/records"),
		mMalformed:    reg.Counter("collector/packets/malformed"),
		mUnknownVer:   reg.Counter("collector/packets/unknown_version"),
		mDropped:      reg.Counter("collector/packets/dropped"),
		mGaps:         reg.Counter("collector/seq/gaps"),
		mLostFlows:    reg.Counter("collector/seq/lost_flows"),
		mLostPackets:  reg.Counter("collector/seq/lost_packets"),
		mResets:       reg.Counter("collector/seq/resets"),
		mTemplates:    reg.Counter("collector/v9/templates"),
		mMissingTmpl:  reg.Counter("collector/v9/missing_template"),
		mReadErrors:   reg.Counter("collector/read_errors"),
		mBatches:      reg.Counter("collector/batches"),
		mSampledOut:   reg.Counter("collector/records/sampled_out"),
		mEvicted:      reg.Counter("collector/templates/evicted"),
		mSFlowSkipped: reg.Counter("collector/sflow/skipped"),
		mCorrupt:      reg.Counter("collector/records/corrupt"),
		gQueueHW:      reg.Gauge("collector/queue/high_water"),
		gExporters:    reg.Gauge("collector/exporters"),
	}
	return c, nil
}

// Addr returns the bound socket address (useful with ":0").
func (c *Collector) Addr() net.Addr { return c.conn.LocalAddr() }

// Templates exposes the v9/IPFIX template cache (e.g. for a status
// page).
func (c *Collector) Templates() *TemplateCache { return c.templates }

// Run pumps the socket until ctx is cancelled: the reader enqueues,
// cfg.Workers decode, and the Handler receives records. On
// cancellation the socket closes, queued packets drain through the
// workers, and Run returns nil. A socket read failure other than
// shutdown aborts with that error.
func (c *Collector) Run(ctx context.Context) error {
	var workers sync.WaitGroup
	for i := 0; i < c.cfg.Workers; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			c.worker()
		}()
	}
	stop := context.AfterFunc(ctx, func() { c.conn.Close() })
	readErr := c.readLoop(ctx)
	stop()
	c.conn.Close()

	// Stop accepting, then let the workers drain what's queued.
	c.closeMu.Lock()
	c.closed = true
	close(c.queue)
	c.closeMu.Unlock()
	workers.Wait()

	if readErr != nil && ctx.Err() == nil {
		return readErr
	}
	return nil
}

// readLoop is the socket pump: pull free buffers from the ring, fill a
// batch from the socket, enqueue. It does no decoding — under load the
// only way to lose packets here is the bounded queue's explicit drop,
// never a stalled reader. At steady state the loop performs zero
// allocations: buffers recycle through the ring and exporter addresses
// are interned by the reader.
func (c *Collector) readLoop(ctx context.Context) error {
	bufs := make([]*ingest.Buf, 0, c.cfg.Batch)
	for {
		bufs = bufs[:0]
		for len(bufs) < c.cfg.Batch {
			b, ok := c.ring.Get()
			if !ok {
				break
			}
			bufs = append(bufs, b)
		}
		if len(bufs) == 0 {
			// Unreachable by construction (the ring is sized past the
			// queue + workers), kept as a guard against a hot spin.
			time.Sleep(time.Millisecond)
			continue
		}
		n, err := c.reader.ReadBatch(bufs)
		if err != nil {
			for _, b := range bufs {
				c.ring.Put(b)
			}
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			c.mReadErrors.Add(1)
			return fmt.Errorf("collector: reading socket: %w", err)
		}
		c.mBatches.Add(1)
		for _, b := range bufs[n:] {
			c.ring.Put(b)
		}
		for _, b := range bufs[:n] {
			c.ingest(b)
		}
	}
}

// Inject feeds one export packet as if it had arrived on the socket
// from the named exporter — the datagram-free path used by tests,
// benchmarks, and in-process replay. The data is copied; ingest
// semantics (metrics, queue bounds, drops) are identical to the socket
// path, including buffer-ring exhaustion counting as a drop. Safe to
// call concurrently with Run; packets injected after Run returns are
// counted as dropped.
func (c *Collector) Inject(data []byte, exporter string) {
	pb, ok := c.ring.Get()
	if !ok {
		c.mPackets.Add(1)
		c.mBytes.Add(int64(len(data)))
		c.mDropped.Add(1)
		return
	}
	if cap(pb.Data) < len(data) {
		pb.Data = make([]byte, len(data))
	}
	pb.Data = pb.Data[:len(data)]
	copy(pb.Data, data)
	pb.Exporter = exporter
	c.ingest(pb)
}

// ingest enqueues one packet, dropping on overflow. Never blocks.
func (c *Collector) ingest(pb *ingest.Buf) {
	c.mPackets.Add(1)
	c.mBytes.Add(int64(len(pb.Data)))
	c.closeMu.RLock()
	if c.closed {
		c.closeMu.RUnlock()
		c.mDropped.Add(1)
		c.ring.Put(pb)
		return
	}
	select {
	case c.queue <- pb:
		c.gQueueHW.SetMax(int64(len(c.queue)))
		c.closeMu.RUnlock()
	default:
		c.closeMu.RUnlock()
		c.mDropped.Add(1)
		c.ring.Put(pb)
	}
}

// worker decodes queued packets until the queue closes and drains.
// Each worker owns one record arena reused across packets; the Handler
// contract (records valid only during the call) is what makes that
// safe.
func (c *Collector) worker() {
	var arena ingest.RecordArena
	for pb := range c.queue {
		c.process(pb, &arena)
	}
}

// process decodes one packet, accounts its sequence, and delivers its
// records through the sampling stage. Malformed input is counted and
// skipped — a hostile or buggy exporter must never take the collector
// down.
func (c *Collector) process(pb *ingest.Buf, arena *ingest.RecordArena) {
	defer c.ring.Put(pb)
	if pb.Truncated {
		// The kernel cut the datagram (MSG_TRUNC): it cannot decode
		// cleanly, so count it without parsing.
		c.mMalformed.Add(1)
		return
	}
	scratch := arena.Take()
	defer func() { arena.Reset(scratch) }()
	version, ok := PacketVersion(pb.Data)
	if !ok {
		c.mMalformed.Add(1)
		return
	}
	switch version {
	case 0:
		// sFlow v5 leads with a u32 version, so the first u16 is 0.
		if len(pb.Data) < 4 || !isSFlow(pb.Data) {
			c.mUnknownVer.Add(1)
			return
		}
		hdr, recs, stats, err := DecodeSFlow(pb.Data, time.Now().UTC(), scratch)
		scratch = recs
		c.mSFlowSkipped.Add(int64(stats.SkippedSamples + stats.SkippedRecords))
		if err != nil {
			c.mMalformed.Add(1)
			// Keep whatever decoded cleanly before the error.
		} else {
			c.accountSFlow(pb.Exporter, hdr)
		}
		c.deliver(recs)
	case 5:
		hdr, recs, err := DecodeV5(pb.Data, scratch)
		scratch = recs
		if err != nil {
			c.mMalformed.Add(1)
			return
		}
		c.mCorrupt.Add(int64(hdr.Corrupt))
		c.accountV5(pb.Exporter, hdr)
		c.deliver(recs)
	case 9:
		hdr, recs, stats, err := c.templates.DecodeV9(pb.Exporter, pb.Data, scratch)
		scratch = recs
		c.mTemplates.Add(int64(stats.TemplatesLearned))
		c.mMissingTmpl.Add(int64(stats.MissingTemplate))
		c.mEvicted.Add(int64(stats.TemplatesEvicted))
		if err != nil {
			c.mMalformed.Add(1)
			// Keep whatever decoded cleanly before the error.
		} else {
			c.accountV9(pb.Exporter, hdr)
		}
		c.deliver(recs)
	case 10:
		hdr, recs, stats, err := c.templates.DecodeIPFIX(pb.Exporter, pb.Data, scratch)
		scratch = recs
		c.mTemplates.Add(int64(stats.TemplatesLearned))
		c.mMissingTmpl.Add(int64(stats.MissingTemplate))
		c.mEvicted.Add(int64(stats.TemplatesEvicted))
		if err != nil {
			c.mMalformed.Add(1)
		} else {
			c.accountIPFIX(pb.Exporter, hdr, stats.Records)
		}
		c.deliver(recs)
	default:
		c.mUnknownVer.Add(1)
	}
}

// isSFlow reports whether the datagram opens with sFlow's u32 version.
func isSFlow(pkt []byte) bool {
	return len(pkt) >= 4 && pkt[0] == 0 && pkt[1] == 0 && pkt[2] == 0 && pkt[3] == 5
}

// deliver runs one packet's records through the sampling stage and
// hands the survivors to the Handler under the emit lock, so consumers
// see a single-threaded stream.
func (c *Collector) deliver(recs []flow.Record) {
	if len(recs) == 0 {
		return
	}
	if c.sampler.Enabled() {
		kept := c.sampler.Filter(recs)
		c.mSampledOut.Add(int64(len(recs) - len(kept)))
		recs = kept
		if len(recs) == 0 {
			return
		}
	}
	c.mRecords.Add(int64(len(recs)))
	c.emitMu.Lock()
	c.cfg.Handler(recs)
	c.emitMu.Unlock()
}

// exporter returns the accounting state for one exporter stream,
// creating it on first sight.
func (c *Collector) exporter(key exporterKey) *exporterState {
	st, ok := c.exporters[key]
	if !ok {
		st = &exporterState{}
		c.exporters[key] = st
		c.gExporters.Set(int64(len(c.exporters)))
	}
	return st
}

// accountV5 tracks the exporter's running flow count. flow_sequence is
// the count of flows exported before this packet, so a jump forward of
// d means exactly d flows were exported but never decoded here — lost
// in the network, the kernel buffer, or our own queue drops. A jump
// backward is an exporter restart (or heavy reordering): counted as a
// reset and resynced, never as a gap.
func (c *Collector) accountV5(exporter string, hdr V5Header) {
	key := exporterKey{exporter, uint16(hdr.EngineType)<<8 | uint16(hdr.EngineID)}
	c.expMu.Lock()
	defer c.expMu.Unlock()
	st := c.exporter(key)
	if st.v5Seen {
		switch d := int32(hdr.FlowSequence - st.v5Next); {
		case d > 0:
			c.mGaps.Add(1)
			c.mLostFlows.Add(int64(d))
		case d < 0:
			c.mResets.Add(1)
		}
	}
	st.v5Seen = true
	st.v5Next = hdr.FlowSequence + uint32(hdr.Count)
}

// SequenceState is one exporter stream's serializable sequence
// expectations — the state that must survive a collector restart so the
// first packets after recovery are checked against the pre-crash
// sequence numbers instead of being treated as a fresh stream (real
// gaps across the outage stay visible; false resets never fire). Only
// the v5/v9 expectations are checkpointed (the snapshot wire format
// predates the IPFIX/sFlow decoders); those streams restart fresh,
// which can hide a cross-outage gap but never invents one.
type SequenceState struct {
	Exporter string // exporter socket address, as reported by the kernel
	Engine   uint16 // v5: engine_type<<8|engine_id; v9: source ID (low 16)
	V5Seen   bool
	V5Next   uint32 // expected flow_sequence of the next v5 packet
	V9Seen   bool
	V9Next   uint32 // expected package sequence of the next v9 packet
}

// SequenceStates snapshots every exporter stream's sequence accounting,
// sorted by (Exporter, Engine) so the same state always serializes to
// the same bytes. Safe to call concurrently with Run.
func (c *Collector) SequenceStates() []SequenceState {
	c.expMu.Lock()
	defer c.expMu.Unlock()
	if len(c.exporters) == 0 {
		return nil
	}
	out := make([]SequenceState, 0, len(c.exporters))
	for key, st := range c.exporters {
		out = append(out, SequenceState{
			Exporter: key.addr,
			Engine:   key.engine,
			V5Seen:   st.v5Seen,
			V5Next:   st.v5Next,
			V9Seen:   st.v9Seen,
			V9Next:   st.v9Next,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Exporter != out[j].Exporter {
			return out[i].Exporter < out[j].Exporter
		}
		return out[i].Engine < out[j].Engine
	})
	return out
}

// RestoreSequenceStates seeds the exporter accounting from a snapshot,
// typically before Run on a collector recovering from a checkpoint.
// Existing entries for the same exporter stream are overwritten.
func (c *Collector) RestoreSequenceStates(states []SequenceState) {
	c.expMu.Lock()
	defer c.expMu.Unlock()
	for _, s := range states {
		st := c.exporter(exporterKey{addr: s.Exporter, engine: s.Engine})
		st.v5Seen = s.V5Seen
		st.v5Next = s.V5Next
		st.v9Seen = s.V9Seen
		st.v9Next = s.V9Next
	}
}

// accountV9 does the same for v9, whose sequence counts packets.
func (c *Collector) accountV9(exporter string, hdr V9Header) {
	key := exporterKey{exporter, uint16(hdr.SourceID)}
	c.expMu.Lock()
	defer c.expMu.Unlock()
	st := c.exporter(key)
	if st.v9Seen {
		switch d := int32(hdr.Sequence - st.v9Next); {
		case d > 0:
			c.mGaps.Add(1)
			c.mLostPackets.Add(int64(d))
		case d < 0:
			c.mResets.Add(1)
		}
	}
	st.v9Seen = true
	st.v9Next = hdr.Sequence + 1
}

// accountIPFIX tracks IPFIX's record-counting sequence: the header
// carries the cumulative data-record count before this message, so a
// forward jump of d means exactly d flow records were lost — v5-exact
// loss measurement, unlike v9's packet counting.
func (c *Collector) accountIPFIX(exporter string, hdr IPFIXHeader, records int) {
	key := exporterKey{exporter, uint16(hdr.DomainID)}
	c.expMu.Lock()
	defer c.expMu.Unlock()
	st := c.exporter(key)
	if st.ipfixSeen {
		switch d := int32(hdr.Sequence - st.ipfixNext); {
		case d > 0:
			c.mGaps.Add(1)
			c.mLostFlows.Add(int64(d))
		case d < 0:
			c.mResets.Add(1)
		}
	}
	st.ipfixSeen = true
	st.ipfixNext = hdr.Sequence + uint32(records)
}

// accountSFlow tracks sFlow's datagram sequence (per sub-agent).
func (c *Collector) accountSFlow(exporter string, hdr SFlowHeader) {
	key := exporterKey{exporter, uint16(hdr.SubAgent)}
	c.expMu.Lock()
	defer c.expMu.Unlock()
	st := c.exporter(key)
	if st.sflowSeen {
		switch d := int32(hdr.Sequence - st.sflowNext); {
		case d > 0:
			c.mGaps.Add(1)
			c.mLostPackets.Add(int64(d))
		case d < 0:
			c.mResets.Add(1)
		}
	}
	st.sflowSeen = true
	st.sflowNext = hdr.Sequence + 1
}
