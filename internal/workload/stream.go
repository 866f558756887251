package workload

import (
	"context"
	"fmt"
	"io"
	"time"

	"clara/internal/budget"
	"clara/internal/pcap"
)

// IngestError reports a capture that went bad mid-stream — most commonly a
// truncated pcap record from an interrupted tcpdump. It carries the window
// read before the failure (Partial) and the global index of that window's
// first packet (Start), so a caller can still simulate the prefix and tell
// the operator exactly where the capture died. Unwrap preserves errors.Is
// against the underlying cause (e.g. pcap.ErrTruncated).
type IngestError struct {
	// NF labels the stream, mirroring the budget errors' NF field.
	NF string
	// Start is the global trace index of the first packet in Partial.
	Start int
	// Err is the underlying read error.
	Err error
	// Partial holds the packets read before the failure; may be empty.
	Partial *Trace
}

func (e *IngestError) Error() string {
	n := 0
	if e.Partial != nil {
		n = len(e.Partial.Packets)
	}
	return fmt.Sprintf("ingest %s: capture failed after %d packets (window start %d): %v",
		e.NF, n, e.Start, e.Err)
}

func (e *IngestError) Unwrap() error { return e.Err }

// TraceReader streams a pcap capture as bounded, contiguous trace windows
// instead of materializing the whole capture: each NextWindow call holds at
// most one window of wire bytes (plus whatever decode cache the consumer
// builds), so peak ingestion memory is set by the window size, not the
// capture length. ArrivalNs is relative to the capture's first record,
// across all windows, so a streamed capture and an in-memory one describe
// identical traces: ReadPcapContext is this reader's single unbounded
// window.
//
// A TraceReader is single-use and not safe for concurrent NextWindow calls;
// the sharded simulator's single producer goroutine is the intended caller.
type TraceReader struct {
	pr        *pcap.Reader
	name      string
	t0        time.Time
	first     bool
	delivered int // global trace index of the next packet to deliver
	done      bool
}

// NewTraceReader starts streaming a pcap capture from r. The name labels
// budget and ingest errors.
func NewTraceReader(r io.Reader, name string) (*TraceReader, error) {
	pr, err := pcap.NewReader(r)
	if err != nil {
		return nil, err
	}
	return &TraceReader{pr: pr, name: name, first: true}, nil
}

// NextWindow reads up to max packets and returns them as a Trace alongside
// the global trace index of the window's first packet. Exhaustion is
// (nil, n, io.EOF). The context's event budget caps total ingested records
// (resource "trace-packets", stage "ingest"); budget and cancellation errors
// return the partial window read before the trip so the caller can still
// simulate those packets. Every window read, tripped or not, is added to
// the context's budget usage.
func (t *TraceReader) NextWindow(ctx context.Context, max int) (*Trace, int, error) {
	start := t.delivered
	if t.done {
		return nil, start, io.EOF
	}
	if max < 1 {
		max = 1
	}
	lim := budget.From(ctx)
	win := &Trace{Name: t.name}
	for len(win.Packets) < max {
		if len(win.Packets)&255 == 0 {
			if err := ctx.Err(); err != nil {
				t.done = true
				t.account(ctx, win)
				return win, start, &budget.CanceledError{
					Stage: "ingest", NF: t.name, Err: err, Partial: win,
				}
			}
		}
		if lim.SimEvents > 0 && int64(t.delivered) >= lim.SimEvents {
			t.done = true
			t.account(ctx, win)
			return win, start, &budget.ExceededError{
				Resource: "trace-packets", Limit: lim.SimEvents,
				Stage: "ingest", NF: t.name, Partial: win,
			}
		}
		rec, err := t.pr.Next()
		if err == io.EOF {
			t.done = true
			if len(win.Packets) == 0 {
				return nil, start, io.EOF
			}
			break
		}
		if err != nil {
			t.done = true
			t.account(ctx, win)
			return win, start, &IngestError{NF: t.name, Start: start, Err: err, Partial: win}
		}
		if t.first {
			t.t0 = rec.Timestamp
			t.first = false
		}
		win.Packets = append(win.Packets, TracePacket{
			Data:      rec.Data,
			ArrivalNs: float64(rec.Timestamp.Sub(t.t0)),
		})
		t.delivered++
	}
	t.account(ctx, win)
	return win, start, nil
}

func (t *TraceReader) account(ctx context.Context, win *Trace) {
	if n := int64(len(win.Packets)); n > 0 {
		budget.UsageFrom(ctx).AddTracePackets(n)
	}
}
