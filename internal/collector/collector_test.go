package collector

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"plotters/internal/flow"
	"plotters/internal/metrics"
)

// testCollector wires a Collector on a loopback socket with a capturing
// handler and runs it until the test ends.
type testCollector struct {
	*Collector
	reg    *metrics.Registry
	mu     sync.Mutex
	recs   []flow.Record
	cancel context.CancelFunc
	done   chan error
}

func startCollector(t *testing.T, mutate func(*Config)) *testCollector {
	t.Helper()
	tc := &testCollector{reg: metrics.New(), done: make(chan error, 1)}
	cfg := Config{
		Addr:    "127.0.0.1:0",
		Workers: 1,
		Handler: func(records []flow.Record) {
			tc.mu.Lock()
			tc.recs = append(tc.recs, records...)
			tc.mu.Unlock()
		},
		Metrics: tc.reg,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := Listen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tc.Collector = c
	ctx, cancel := context.WithCancel(context.Background())
	tc.cancel = cancel
	go func() { tc.done <- c.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		if err := <-tc.done; err != nil {
			t.Errorf("Run: %v", err)
		}
	})
	return tc
}

func (tc *testCollector) records() []flow.Record {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return append([]flow.Record(nil), tc.recs...)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func (tc *testCollector) counter(name string) int64 { return tc.reg.Counter(name).Value() }

func TestCollectorUDPLoopback(t *testing.T) {
	tc := startCollector(t, nil)

	conn, err := net.Dial("udp", tc.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	records := wireRecords()
	pkt, err := AppendV5(nil, records, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(pkt); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "records off the wire", func() bool { return len(tc.records()) == len(records) })

	got := tc.records()
	for i := range records {
		if got[i].Src != records[i].Src || got[i].State != records[i].State || !got[i].Start.Equal(records[i].Start) {
			t.Errorf("record %d = %+v, want %+v", i, got[i], records[i])
		}
	}
	if n := tc.counter("collector/packets"); n != 1 {
		t.Errorf("packets = %d, want 1", n)
	}
	if n := tc.counter("collector/bytes"); n != int64(len(pkt)) {
		t.Errorf("bytes = %d, want %d", n, len(pkt))
	}
	if n := tc.counter("collector/records"); n != int64(len(records)) {
		t.Errorf("records = %d, want %d", n, len(records))
	}
}

func TestCollectorSurvivesHostilePackets(t *testing.T) {
	tc := startCollector(t, nil)

	good, err := AppendV5(nil, wireRecords(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tc.Inject(nil, "e")                           // empty datagram
	tc.Inject([]byte{5}, "e")                     // 1 byte: no version field
	tc.Inject(good[:20], "e")                     // truncated header
	tc.Inject(good[:len(good)-5], "e")            // truncated record
	tc.Inject(append([]byte{0, 7}, good...), "e") // unknown version
	tc.Inject(make([]byte, 1464), "e")            // all zeros: version 0
	tc.Inject(good, "e")                          // a good packet still lands

	waitFor(t, "the good packet", func() bool { return len(tc.records()) == len(wireRecords()) })
	if n := tc.counter("collector/packets/malformed"); n != 4 {
		t.Errorf("malformed = %d, want 4", n)
	}
	if n := tc.counter("collector/packets/unknown_version"); n != 2 {
		t.Errorf("unknown_version = %d, want 2", n)
	}
	if n := tc.counter("collector/packets"); n != 7 {
		t.Errorf("packets = %d, want 7", n)
	}
}

// One v5 record with inverted timestamps is counted and skipped; the
// rest of its packet reaches the handler and the packet is not
// malformed.
func TestCollectorV5CorruptRecordKeepsSiblings(t *testing.T) {
	tc := startCollector(t, nil)
	pkt, err := AppendV5(nil, wireRecords(), 0)
	if err != nil {
		t.Fatal(err)
	}
	copy(pkt[V5HeaderSize+28:], []byte{0xff, 0xff, 0xff, 0xff}) // record 0: Last before First
	tc.Inject(pkt, "e")

	want := len(wireRecords()) - 1
	waitFor(t, "the sibling records", func() bool { return len(tc.records()) == want })
	if n := tc.counter("collector/records/corrupt"); n != 1 {
		t.Errorf("records/corrupt = %d, want 1", n)
	}
	if n := tc.counter("collector/packets/malformed"); n != 0 {
		t.Errorf("malformed = %d, want 0", n)
	}
	if n := tc.counter("collector/records"); n != int64(want) {
		t.Errorf("records = %d, want %d", n, want)
	}
}

func TestCollectorSequenceGapAndReset(t *testing.T) {
	tc := startCollector(t, nil)
	records := wireRecords() // 4 records per packet

	inject := func(seq uint32) {
		pkt, err := AppendV5(nil, records, seq)
		if err != nil {
			t.Fatal(err)
		}
		tc.Inject(pkt, "router-1")
	}
	inject(0)  // baseline: next expected = 4
	inject(10) // gap: flows 4..9 (6 flows) lost
	inject(0)  // exporter restart: sequence reset

	waitFor(t, "sequence accounting", func() bool { return tc.counter("collector/seq/resets") == 1 })
	if n := tc.counter("collector/seq/gaps"); n != 1 {
		t.Errorf("gaps = %d, want 1", n)
	}
	if n := tc.counter("collector/seq/lost_flows"); n != 6 {
		t.Errorf("lost_flows = %d, want 6", n)
	}
	if n := tc.reg.Gauge("collector/exporters").Value(); n != 1 {
		t.Errorf("exporters = %d, want 1", n)
	}
	// All three packets' records were delivered regardless.
	if got := len(tc.records()); got != 3*len(records) {
		t.Errorf("delivered %d records, want %d", got, 3*len(records))
	}
}

// Sequence accounting restored from a snapshot must carry across a
// collector restart: packets lost during the outage surface as a gap
// against the pre-crash expectations, and an in-sequence first packet
// after recovery raises nothing — exactly as if the process never died.
func TestCollectorSequenceStateSurvivesRestart(t *testing.T) {
	records := wireRecords() // 4 records per packet
	pkt := func(t *testing.T, seq uint32) []byte {
		t.Helper()
		p, err := AppendV5(nil, records, seq)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	first := startCollector(t, nil)
	first.Inject(pkt(t, 0), "router-1")
	first.Inject(pkt(t, 4), "router-1")
	waitFor(t, "baseline accounting", func() bool {
		return first.counter("collector/records") == int64(2*len(records))
	})
	states := first.SequenceStates()
	if len(states) != 1 {
		t.Fatalf("SequenceStates = %+v, want one exporter stream", states)
	}
	if s := states[0]; s.Exporter != "router-1" || !s.V5Seen || s.V5Next != 8 {
		t.Fatalf("snapshotted state = %+v, want router-1 expecting flow 8", s)
	}

	// "Restart": a brand-new collector seeded with the snapshot. The
	// exporter's packets for flows 8..11 were lost during the outage;
	// the first post-recovery packet starts at flow 12.
	second := startCollector(t, nil)
	second.RestoreSequenceStates(states)
	if n := second.reg.Gauge("collector/exporters").Value(); n != 1 {
		t.Errorf("restored exporters gauge = %d, want 1", n)
	}
	second.Inject(pkt(t, 12), "router-1")
	waitFor(t, "post-restart accounting", func() bool {
		return second.counter("collector/records") == int64(len(records))
	})
	if n := second.counter("collector/seq/gaps"); n != 1 {
		t.Errorf("gaps = %d, want 1 (the outage)", n)
	}
	if n := second.counter("collector/seq/lost_flows"); n != 4 {
		t.Errorf("lost_flows = %d, want 4", n)
	}
	if n := second.counter("collector/seq/resets"); n != 0 {
		t.Errorf("resets = %d, want 0 — restore must not look like an exporter restart", n)
	}

	// Without the snapshot the same packet would have established a
	// fresh baseline and the outage would be invisible.
	third := startCollector(t, nil)
	third.Inject(pkt(t, 12), "router-1")
	waitFor(t, "fresh accounting", func() bool {
		return third.counter("collector/records") == int64(len(records))
	})
	if n := third.counter("collector/seq/gaps"); n != 0 {
		t.Errorf("fresh collector gaps = %d, want 0", n)
	}
}

func TestCollectorV9SequenceCountsPackets(t *testing.T) {
	tc := startCollector(t, nil)
	tmpl := func(seq uint32) []byte {
		return v9Packet(1000, 1194253200, seq, 7, flowSet(0, fullTemplate(300)))
	}
	tc.Inject(tmpl(1), "router-9")
	tc.Inject(tmpl(5), "router-9") // packets 2,3,4 lost
	tc.Inject(tmpl(0), "router-9") // restart

	waitFor(t, "v9 accounting", func() bool { return tc.counter("collector/seq/resets") == 1 })
	if n := tc.counter("collector/seq/lost_packets"); n != 3 {
		t.Errorf("lost_packets = %d, want 3", n)
	}
	if n := tc.counter("collector/v9/templates"); n != 3 {
		t.Errorf("templates learned = %d, want 3", n)
	}
}

func TestCollectorQueueOverflowDropsNotBlocks(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var mu sync.Mutex
	var delivered int
	reg := metrics.New()
	c, err := Listen(Config{
		Addr:      "127.0.0.1:0",
		Workers:   1,
		QueueSize: 1,
		Handler: func(records []flow.Record) {
			entered <- struct{}{}
			<-release
			mu.Lock()
			delivered += len(records)
			mu.Unlock()
		},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.Run(ctx) }()

	pkt, err := AppendV5(nil, wireRecords(), 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Inject(pkt, "e") // worker takes it and parks in the handler
	<-entered
	c.Inject(pkt, "e") // fills the 1-slot queue
	c.Inject(pkt, "e") // dropped
	c.Inject(pkt, "e") // dropped

	// The drops are synchronous — no waiting, and the reader path never
	// blocked even with the worker parked.
	if n := reg.Counter("collector/packets/dropped").Value(); n != 2 {
		t.Errorf("dropped = %d, want 2", n)
	}
	if hw := reg.Gauge("collector/queue/high_water").Value(); hw != 1 {
		t.Errorf("queue high-water = %d, want 1", hw)
	}

	release <- struct{}{} // unpark packet 1
	<-entered             // packet 2 reaches the handler
	release <- struct{}{}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := 2 * len(wireRecords()); delivered != want {
		t.Errorf("delivered %d records, want %d", delivered, want)
	}
}

func TestCollectorShutdownDrainsQueue(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var mu sync.Mutex
	var delivered int
	c, err := Listen(Config{
		Addr:    "127.0.0.1:0",
		Workers: 1,
		Handler: func(records []flow.Record) {
			entered <- struct{}{}
			<-release
			mu.Lock()
			delivered += len(records)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.Run(ctx) }()

	pkt, err := AppendV5(nil, wireRecords(), 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Inject(pkt, "e")
	<-entered          // packet 1 is in the handler
	c.Inject(pkt, "e") // packet 2 is queued
	cancel()           // shutdown begins with work in flight

	release <- struct{}{}
	<-entered // queued packet still drains after cancellation
	release <- struct{}{}
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	mu.Lock()
	drained := delivered
	mu.Unlock()
	if want := 2 * len(wireRecords()); drained != want {
		t.Errorf("drained %d records through shutdown, want %d", drained, want)
	}

	// The collector is closed now: late packets drop, nothing panics.
	c.Inject(pkt, "e")
}

func TestCollectorInjectAfterShutdownDrops(t *testing.T) {
	reg := metrics.New()
	c, err := Listen(Config{Addr: "127.0.0.1:0", Handler: func([]flow.Record) {}, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Run(ctx); err != nil {
		t.Fatalf("Run: %v", err)
	}
	pkt, err := AppendV5(nil, wireRecords(), 3)
	if err != nil {
		t.Fatal(err)
	}
	c.Inject(pkt, "e")
	if n := reg.Counter("collector/packets/dropped").Value(); n != 1 {
		t.Errorf("post-shutdown dropped = %d, want 1", n)
	}
}

func TestListenValidation(t *testing.T) {
	if _, err := Listen(Config{Handler: func([]flow.Record) {}}); err == nil {
		t.Error("Listen accepted an empty Addr")
	}
	if _, err := Listen(Config{Addr: ":0"}); err == nil {
		t.Error("Listen accepted a nil Handler")
	}
}
