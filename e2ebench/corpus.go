package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"plotters"
)

// maxSkew is the engine's reorder tolerance on every workload. The
// replayed passes are start-ordered, so no record is ever late; the
// skew only decides which datagram seals a window.
const maxSkew = time.Minute

// corpus is one run's input: the overlaid corpus day replayed as
// back-to-back passes and encoded as export datagrams. Everything the
// timed section touches is here; the records themselves are dropped
// after encoding and decoded again from the datagrams for the verdict
// gate.
type corpus struct {
	w        workload
	seed     int64
	origin   time.Time     // start of pass 0 (the day's collection window)
	passLen  time.Duration // one pass: the day's collection window length
	end      time.Time     // end of the last pass: the final AdvanceTo
	packets  [][]byte
	counts   []int             // records per packet
	records  int64             // records across all passes
	windows  []plotters.Window // every window the engine emits; the engine's Result.Index is the position here
	triggers []int             // per window: index of its sealing packet, -1 = the final AdvanceTo

	generate, overlay, encode time.Duration
}

// packetWriter captures each Write as one export datagram; the export
// trace writers issue exactly one Write per packet.
type packetWriter struct{ packets [][]byte }

func (pw *packetWriter) Write(p []byte) (int, error) {
	pw.packets = append(pw.packets, append([]byte(nil), p...))
	return len(p), nil
}

// buildCorpus synthesizes day 0 of the dsCfg corpus, overlays the
// honeynet bots with overlay seed seed+1 (at seed 42 exactly as the
// evaluation suite does), and encodes w.passes shifted copies of the day
// as one exporter's datagram stream.
func buildCorpus(w workload, seed int64, dsCfg plotters.DatasetConfig) (*corpus, error) {
	c := &corpus{w: w, seed: seed}

	t := time.Now()
	ds, err := plotters.GenerateDataset(dsCfg)
	if err != nil {
		return nil, err
	}
	c.generate = time.Since(t)

	t = time.Now()
	day, err := plotters.OverlayDay(ds.Days[0], ds, seed+1, plotters.DefaultConfig())
	if err != nil {
		return nil, err
	}
	c.overlay = time.Since(t)
	c.origin = ds.Days[0].Window.From
	c.passLen = ds.Days[0].Window.Duration()
	c.end = c.origin.Add(time.Duration(w.passes) * c.passLen)

	t = time.Now()
	var pw packetWriter
	tw, err := plotters.NewTraceWriter(&pw, w.format)
	if err != nil {
		return nil, err
	}
	for p := 0; p < w.passes; p++ {
		shift := time.Duration(p) * c.passLen
		for i := range day.Records {
			r := day.Records[i]
			r.Start = r.Start.Add(shift)
			r.End = r.End.Add(shift)
			if err := tw.Write(&r); err != nil {
				return nil, err
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	c.packets = pw.packets
	c.encode = time.Since(t)
	if err := c.plan(); err != nil {
		return nil, err
	}
	return c, nil
}

// windowLen returns the workload's detection window length.
func (c *corpus) windowLen() time.Duration {
	if c.w.window > 0 {
		return c.w.window
	}
	return c.passLen
}

// paneLen returns the engine's pane length: the slide, or the whole
// window when windows tumble.
func (c *corpus) paneLen() time.Duration {
	if c.w.slide > 0 {
		return c.w.slide
	}
	return c.windowLen()
}

// plan decodes the datagram stream once to count each packet's records
// and to find, for every window the engine will emit, the packet that
// seals it: the first one carrying a record the collector keeps whose
// start is at or past window end + maxSkew. Windows no packet seals
// are closed by the final AdvanceTo.
func (c *corpus) plan() error {
	pane, win := c.paneLen(), c.windowLen()
	for end := c.origin.Add(win); !end.After(c.end); end = end.Add(pane) {
		c.windows = append(c.windows, plotters.Window{From: end.Add(-win), To: end})
	}
	c.triggers = make([]int, len(c.windows))
	for i := range c.triggers {
		c.triggers[i] = -1
	}
	sampler := c.sampler()
	next := 0 // first window not yet sealed
	var frontier time.Time
	c.counts = make([]int, len(c.packets))
	for p, pkt := range c.packets {
		recs, err := decodePacket(pkt, c.w.format)
		if err != nil {
			return fmt.Errorf("packet %d: %w", p, err)
		}
		c.counts[p] = len(recs)
		c.records += int64(len(recs))
		for i := range recs {
			if sampler.Keep(&recs[i]) && recs[i].Start.After(frontier) {
				frontier = recs[i].Start
			}
		}
		for next < len(c.windows) && !frontier.Before(c.windows[next].To.Add(maxSkew)) {
			c.triggers[next] = p
			next++
		}
	}
	return nil
}

// sampler is the collector's sampling stage for this workload; the
// reference applies the same one to the decoded wire records.
func (c *corpus) sampler() plotters.FlowSampler {
	return plotters.FlowSampler{N: c.w.sampleN, Seed: uint64(c.seed)}
}

// decodePacket decodes one self-describing export datagram.
func decodePacket(pkt []byte, format string) ([]plotters.Record, error) {
	r, err := plotters.NewTraceReader(bytes.NewReader(pkt), format)
	if err != nil {
		return nil, err
	}
	var recs []plotters.Record
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
}

// wireRecords decodes the whole stream and keeps what the collector's
// sampler keeps, sorted by start time: the records the engine sees.
func (c *corpus) wireRecords() ([]plotters.Record, error) {
	sampler := c.sampler()
	out := make([]plotters.Record, 0, c.records)
	for p, pkt := range c.packets {
		recs, err := decodePacket(pkt, c.w.format)
		if err != nil {
			return nil, fmt.Errorf("packet %d: %w", p, err)
		}
		for i := range recs {
			if sampler.Keep(&recs[i]) {
				out = append(out, recs[i])
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out, nil
}
