// Package collector is the system's live network I/O boundary: it
// decodes NetFlow export packets — the telemetry a border router or a
// software exporter emits about every flow it forwards — into
// flow.Records and pumps them off a UDP socket into the continuous
// detection engine. Two export formats are understood:
//
//   - NetFlow v5, the fixed-layout workhorse format (24-byte header,
//     48-byte records, ≤30 records per packet), decoded and encoded —
//     the encode side lets synthesized traces be replayed over loopback
//     as real exporter traffic (cmd/flowreplay, flowio.NetFlowWriter).
//   - NetFlow v9, the template-based format, decoded through a small
//     template cache: templates announce field layouts per exporter and
//     data FlowSets are cracked against them, with unknown fields
//     skipped by length ("template-lite" — no options templates, no
//     variable-length IPFIX strings).
//
// The Collector itself (Listen/Run) is shaped for production ingest:
// the socket reader only reads and enqueues, a bounded queue drops on
// overflow rather than ever blocking the reader, a worker pool decodes,
// per-exporter flow_sequence accounting measures export loss, and
// malformed or unknown-version packets are counted and skipped, never
// fatal.
//
// NetFlow v5 carries less than a flow.Record holds. The mapping, and
// what detection needs of it, is:
//
//   - Src/Dst/ports/proto map directly; the detection pipeline keys on
//     Src and Dst only.
//   - dPkts/dOctets are the initiator's SrcPkts/SrcBytes (saturated at
//     2³²−1 on encode); responder-side DstPkts/DstBytes do not exist in
//     v5 and decode as zero. Detection reads only SrcBytes.
//   - First/Last are SysUptime-relative milliseconds, so decoded
//     Start/End times are the originals floored to the millisecond.
//     Detection's interstitial-timing feature works at second scale;
//     see the loopback equivalence test for the end-to-end guarantee.
//   - ConnState rides on tcp_flags: established sets ACK (0x10), failed
//     TCP sets SYN|RST, failed non-TCP sets RST. Decoding reads the
//     same bits back: TCP is established iff ACK is set; non-TCP is
//     failed iff RST is set. Hardware exporters that zero tcp_flags on
//     UDP therefore decode as established — the conservative default.
//   - Payload (ground-truth labeling only, never read by detection)
//     cannot be carried and is dropped.
package collector

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"plotters/internal/flow"
)

// NetFlow v5 wire-format dimensions.
const (
	// V5HeaderSize is the fixed packet header length in bytes.
	V5HeaderSize = 24
	// V5RecordSize is the per-flow record length in bytes.
	V5RecordSize = 48
	// V5MaxRecords is the record cap per packet (24 + 30*48 = 1464
	// bytes, inside a 1500-byte MTU).
	V5MaxRecords = 30
)

// Decode errors. Wrap with %w so callers can classify with errors.Is.
var (
	// ErrTruncated marks a packet shorter than its header claims.
	ErrTruncated = errors.New("collector: truncated export packet")
	// ErrVersion marks an export version this decoder does not speak.
	ErrVersion = errors.New("collector: unsupported export version")
	// ErrCorrupt marks a structurally invalid packet (count/length
	// mismatch, a v9/IPFIX flow that ends before it starts, a malformed
	// template).
	ErrCorrupt = errors.New("collector: corrupt export packet")
)

// TCP flag bits used for the ConnState mapping.
const (
	tcpFIN = 0x01
	tcpSYN = 0x02
	tcpRST = 0x04
	tcpACK = 0x10
)

// stateFlags encodes a record's connection outcome as tcp_flags bits.
func stateFlags(proto flow.Proto, st flow.ConnState) byte {
	switch {
	case st == flow.StateEstablished && proto == flow.TCP:
		return tcpSYN | tcpACK | tcpFIN // complete handshake, closed cleanly
	case st == flow.StateEstablished:
		return tcpACK
	case proto == flow.TCP:
		return tcpSYN | tcpRST // attempt reset before establishing
	default:
		return tcpRST
	}
}

// flagsState inverts stateFlags, tolerating real-exporter flag soup:
// TCP is established iff an ACK was observed; anything else is
// established unless the exporter marked a reset.
func flagsState(proto flow.Proto, flags byte) flow.ConnState {
	if proto == flow.TCP {
		if flags&tcpACK != 0 {
			return flow.StateEstablished
		}
		return flow.StateFailed
	}
	if flags&tcpRST != 0 {
		return flow.StateFailed
	}
	return flow.StateEstablished
}

// PacketVersion peeks an export packet's version field without
// decoding. ok is false when the packet is too short to carry one.
func PacketVersion(pkt []byte) (version uint16, ok bool) {
	if len(pkt) < 2 {
		return 0, false
	}
	return binary.BigEndian.Uint16(pkt), true
}

// V5Header is the decoded fixed header of one NetFlow v5 packet.
type V5Header struct {
	// Count is the number of flow records the packet carries.
	Count int
	// SysUptime is the exporter's time since boot at export.
	SysUptime time.Duration
	// Exported is the exporter's wall clock at export (unix_secs +
	// unix_nsecs). A record timestamp T is reconstructed as
	// Exported − (SysUptime − T) mod 2³² ms, which survives a wrap of
	// the uptime counter.
	Exported time.Time
	// FlowSequence is the sequence number of the packet's first flow:
	// the exporter's running count of flows exported before this
	// packet. Gaps measure export/transport loss.
	FlowSequence uint32
	// EngineType and EngineID identify the flow-switching engine.
	EngineType byte
	EngineID   byte
	// SamplingInterval is the raw sampling mode/interval field.
	SamplingInterval uint16
	// Corrupt counts records skipped because they end before they
	// start; the packet's other records are still decoded.
	Corrupt int
}

// DecodeV5 decodes one NetFlow v5 packet, appending its flow records to
// dst (which may be nil; pass a reused slice to decode allocation-free).
// The packet must be exactly header + count*48 bytes — a UDP datagram
// is one packet. A record that ends before it starts is skipped and
// counted in V5Header.Corrupt, so one bad record never costs its
// siblings. No other semantic validation is applied; v5 carries flows
// of any IANA protocol.
func DecodeV5(pkt []byte, dst []flow.Record) (V5Header, []flow.Record, error) {
	if len(pkt) < V5HeaderSize {
		return V5Header{}, dst, fmt.Errorf("%w: %d bytes, need %d for a v5 header", ErrTruncated, len(pkt), V5HeaderSize)
	}
	be := binary.BigEndian
	if v := be.Uint16(pkt); v != 5 {
		return V5Header{}, dst, fmt.Errorf("%w: version %d, want 5", ErrVersion, v)
	}
	count := int(be.Uint16(pkt[2:]))
	if want := V5HeaderSize + count*V5RecordSize; len(pkt) != want {
		return V5Header{}, dst, fmt.Errorf("%w: %d bytes for %d records, want %d", ErrCorrupt, len(pkt), count, want)
	}
	hdr := V5Header{
		Count:            count,
		SysUptime:        time.Duration(be.Uint32(pkt[4:])) * time.Millisecond,
		Exported:         time.Unix(int64(be.Uint32(pkt[8:])), int64(be.Uint32(pkt[12:]))).UTC(),
		FlowSequence:     be.Uint32(pkt[16:]),
		EngineType:       pkt[20],
		EngineID:         pkt[21],
		SamplingInterval: be.Uint16(pkt[22:]),
	}
	// First and Last are read as ages before export, modulo the 32-bit
	// uptime counter: a record stamped just before SysUptime wrapped
	// still lands just before Exported, not 49.7 days after it.
	uptime := be.Uint32(pkt[4:])
	for i := 0; i < count; i++ {
		b := pkt[V5HeaderSize+i*V5RecordSize:]
		firstAge := time.Duration(uptime-be.Uint32(b[24:])) * time.Millisecond
		lastAge := time.Duration(uptime-be.Uint32(b[28:])) * time.Millisecond
		if lastAge > firstAge {
			hdr.Corrupt++
			continue
		}
		proto := flow.Proto(b[38])
		dst = append(dst, flow.Record{
			Src:      flow.IP(be.Uint32(b)),
			Dst:      flow.IP(be.Uint32(b[4:])),
			SrcPort:  be.Uint16(b[32:]),
			DstPort:  be.Uint16(b[34:]),
			Proto:    proto,
			Start:    hdr.Exported.Add(-firstAge),
			End:      hdr.Exported.Add(-lastAge),
			SrcPkts:  be.Uint32(b[16:]),
			SrcBytes: uint64(be.Uint32(b[20:])),
			State:    flagsState(proto, b[37]),
		})
	}
	return hdr, dst, nil
}

// AppendV5 encodes 1..V5MaxRecords records as one NetFlow v5 packet
// appended to dst. seq is the exporter's running flow count before this
// packet (header flow_sequence); callers maintain it as seq += count.
//
// The packet's reference clock is derived from the records themselves:
// boot time is the earliest Start floored to the millisecond, export
// time the latest End ceiled to it, so decoding reproduces every
// timestamp floored to the millisecond exactly. Records already on a
// whole-millisecond grid round-trip bit for bit. SrcBytes and SrcPkts
// saturate at 2³²−1 (v5 counters are 32-bit); DstPkts, DstBytes, and
// Payload have no v5 representation and are dropped.
func AppendV5(dst []byte, records []flow.Record, seq uint32) ([]byte, error) {
	if len(records) == 0 {
		return dst, fmt.Errorf("collector: refusing to encode an empty v5 packet")
	}
	if len(records) > V5MaxRecords {
		return dst, fmt.Errorf("collector: %d records exceed the v5 packet cap of %d", len(records), V5MaxRecords)
	}
	boot := records[0].Start
	export := records[0].End
	for i := range records {
		r := &records[i]
		if r.End.Before(r.Start) {
			return dst, fmt.Errorf("collector: record %d ends before it starts", i)
		}
		if r.Start.Before(boot) {
			boot = r.Start
		}
		if r.End.After(export) {
			export = r.End
		}
	}
	boot = boot.Truncate(time.Millisecond)
	if ceil := export.Truncate(time.Millisecond); ceil.Before(export) {
		export = ceil.Add(time.Millisecond)
	}
	uptime := export.Sub(boot)
	if ms := uptime.Milliseconds(); ms < 0 || ms > math.MaxUint32 {
		return dst, fmt.Errorf("collector: packet time span %v exceeds the v5 uptime range", uptime)
	}
	if secs := export.Unix(); secs < 0 || secs > math.MaxUint32 {
		return dst, fmt.Errorf("collector: export time %v outside the v5 unix_secs range", export)
	}

	var hdr [V5HeaderSize]byte
	be := binary.BigEndian
	be.PutUint16(hdr[0:], 5)
	be.PutUint16(hdr[2:], uint16(len(records)))
	be.PutUint32(hdr[4:], uint32(uptime.Milliseconds()))
	be.PutUint32(hdr[8:], uint32(export.Unix()))
	be.PutUint32(hdr[12:], uint32(export.Nanosecond()))
	be.PutUint32(hdr[16:], seq)
	// engine_type, engine_id, sampling_interval: zero (software
	// exporter, unsampled).
	dst = append(dst, hdr[:]...)

	var rec [V5RecordSize]byte
	for i := range records {
		r := &records[i]
		b := rec[:]
		clear(b)
		be.PutUint32(b[0:], uint32(r.Src))
		be.PutUint32(b[4:], uint32(r.Dst))
		// nexthop, input, output: zero.
		be.PutUint32(b[16:], r.SrcPkts)
		be.PutUint32(b[20:], uint32(min(r.SrcBytes, math.MaxUint32)))
		be.PutUint32(b[24:], uint32(r.Start.Sub(boot).Milliseconds()))
		be.PutUint32(b[28:], uint32(r.End.Sub(boot).Milliseconds()))
		be.PutUint16(b[32:], r.SrcPort)
		be.PutUint16(b[34:], r.DstPort)
		b[37] = stateFlags(r.Proto, r.State)
		b[38] = byte(r.Proto)
		// tos, AS numbers, masks, padding: zero.
		dst = append(dst, b...)
	}
	return dst, nil
}
