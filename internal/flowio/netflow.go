package flowio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"plotters/internal/collector"
	"plotters/internal/flow"
	"plotters/internal/metrics"
)

// NetFlowWriter packs records into valid NetFlow v5 export packets, up
// to 30 per packet, issuing exactly one underlying Write per packet.
// That single-write contract is the point: handed a net.Conn, every
// packet leaves as one datagram a real collector accepts — the bridge
// that lets synthesized traces replay over loopback as live exporter
// traffic. Handed a file, the result is a stream of concatenated
// packets, the self-framing "netflow" trace format NetFlowReader (and
// flowconvert) reads back.
//
// The format is lossy where v5 is: timestamps floor to the millisecond,
// SrcPkts/SrcBytes saturate at 2³²−1, and DstPkts/DstBytes/Payload are
// dropped (see collector.AppendV5). The header flow_sequence runs
// across the writer's lifetime, so a reading collector sees a
// gap-free exporter.
type NetFlowWriter struct {
	w     io.Writer
	batch []flow.Record
	pkt   []byte
	seq   uint32
}

// NewNetFlowWriter wraps w.
func NewNetFlowWriter(w io.Writer) *NetFlowWriter {
	return &NetFlowWriter{w: w, batch: make([]flow.Record, 0, collector.V5MaxRecords)}
}

// Write buffers one record, emitting a packet when a full one is ready.
func (nw *NetFlowWriter) Write(r *flow.Record) error {
	if err := r.Validate(); err != nil {
		return fmt.Errorf("flowio: refusing to encode invalid record: %w", err)
	}
	nw.batch = append(nw.batch, *r)
	if len(nw.batch) == collector.V5MaxRecords {
		return nw.emit()
	}
	return nil
}

// Flush emits any partial packet. An empty trace writes nothing — a v5
// stream has no file header, only packets.
func (nw *NetFlowWriter) Flush() error {
	if len(nw.batch) == 0 {
		return nil
	}
	return nw.emit()
}

// emit encodes the batch as one packet and writes it in one call.
func (nw *NetFlowWriter) emit() error {
	pkt, err := collector.AppendV5(nw.pkt[:0], nw.batch, nw.seq)
	if err != nil {
		return fmt.Errorf("flowio: encoding netflow packet: %w", err)
	}
	nw.pkt = pkt
	if _, err := nw.w.Write(pkt); err != nil {
		return fmt.Errorf("flowio: writing netflow packet: %w", err)
	}
	nw.seq += uint32(len(nw.batch))
	nw.batch = nw.batch[:0]
	return nil
}

// NetFlowReader streams records from a concatenation of NetFlow v5
// packets (a NetFlowWriter trace file). The format is self-framing —
// each packet header declares its record count and therefore its length
// — so no extra container is needed. v9 packets are not accepted here;
// templates make v9 a session protocol, not a storage format.
type NetFlowReader struct {
	src     *countReader
	r       *bufio.Reader
	pkt     []byte
	pending []flow.Record
	idx     int
	packets int
	records *metrics.Counter
}

// NewNetFlowReader wraps r.
func NewNetFlowReader(r io.Reader) *NetFlowReader {
	src := &countReader{r: r}
	return &NetFlowReader{src: src, r: bufio.NewReaderSize(src, 1<<16)}
}

// Next returns the next record, or io.EOF at end of trace. A trace
// ending mid-packet is an error, not EOF.
func (nr *NetFlowReader) Next() (flow.Record, error) {
	for nr.idx == len(nr.pending) {
		if err := nr.readPacket(); err != nil {
			return flow.Record{}, err
		}
	}
	rec := nr.pending[nr.idx]
	nr.idx++
	nr.records.Add(1)
	return rec, nil
}

// readPacket decodes the next packet into the pending buffer. A packet
// may carry zero records (some exporters heartbeat); the caller loops.
func (nr *NetFlowReader) readPacket() error {
	var hdr [collector.V5HeaderSize]byte
	if _, err := io.ReadFull(nr.r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return io.EOF // clean packet boundary
		}
		return fmt.Errorf("flowio: netflow trace truncated mid-header (packet %d): %w", nr.packets, err)
	}
	if v := binary.BigEndian.Uint16(hdr[:]); v != 5 {
		return fmt.Errorf("flowio: netflow trace packet %d has version %d, want 5", nr.packets, v)
	}
	count := int(binary.BigEndian.Uint16(hdr[2:]))
	need := collector.V5HeaderSize + count*collector.V5RecordSize
	if cap(nr.pkt) < need {
		nr.pkt = make([]byte, need)
	}
	nr.pkt = nr.pkt[:need]
	copy(nr.pkt, hdr[:])
	if _, err := io.ReadFull(nr.r, nr.pkt[collector.V5HeaderSize:]); err != nil {
		return fmt.Errorf("flowio: netflow trace truncated mid-packet (packet %d, %d records): %w", nr.packets, count, err)
	}
	decoded, pending, err := collector.DecodeV5(nr.pkt, nr.pending[:0])
	nr.pending = pending
	nr.idx = 0
	if err != nil {
		return fmt.Errorf("flowio: netflow trace packet %d: %w", nr.packets, err)
	}
	if decoded.Corrupt > 0 {
		// A live collector skips and counts such records; a trace file
		// is read whole or not at all.
		return fmt.Errorf("flowio: netflow trace packet %d: %w: %d records end before they start",
			nr.packets, collector.ErrCorrupt, decoded.Corrupt)
	}
	nr.packets++
	return nil
}

// ReadAllNetFlow decodes an entire netflow trace into memory.
func ReadAllNetFlow(r io.Reader) ([]flow.Record, error) {
	nr := NewNetFlowReader(r)
	var out []flow.Record
	for {
		rec, err := nr.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

// WriteAllNetFlow encodes records to w as v5 packets and flushes.
func WriteAllNetFlow(w io.Writer, records []flow.Record) error {
	nw := NewNetFlowWriter(w)
	for i := range records {
		if err := nw.Write(&records[i]); err != nil {
			return err
		}
	}
	return nw.Flush()
}
