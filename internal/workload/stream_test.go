package workload

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"testing"

	"clara/internal/budget"
	"clara/internal/pcap"
)

func pcapFixture(t *testing.T, packets int) ([]byte, *Trace) {
	t.Helper()
	p := DefaultProfile()
	p.Packets = packets
	p.Flows = 16
	tr, err := GenerateContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	// The reference trace re-reads the same bytes so both sides carry the
	// identical pcap-quantized timestamps.
	want, err := ReadPcapContext(context.Background(), bytes.NewReader(buf.Bytes()), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), want
}

// TestTraceReaderWindows streams a capture in ragged windows and requires
// the concatenation to reproduce ReadPcapContext exactly: same bytes, same
// first-record-relative arrival times across window boundaries, contiguous
// start indices, io.EOF exactly once at the end.
func TestTraceReaderWindows(t *testing.T) {
	raw, want := pcapFixture(t, 100)
	rd, err := NewTraceReader(bytes.NewReader(raw), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var got []TracePacket
	for {
		win, start, err := rd.NextWindow(ctx, 7)
		if err == io.EOF {
			if win != nil {
				t.Fatal("io.EOF must come with a nil window")
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if start != len(got) {
			t.Fatalf("window start = %d, want %d", start, len(got))
		}
		if len(win.Packets) == 0 || len(win.Packets) > 7 {
			t.Fatalf("window size = %d, want 1..7", len(win.Packets))
		}
		got = append(got, win.Packets...)
	}
	if rd.delivered != len(want.Packets) {
		t.Fatalf("delivered = %d, want %d", rd.delivered, len(want.Packets))
	}
	if !reflect.DeepEqual(got, want.Packets) {
		t.Fatalf("streamed packets differ from ReadPcapContext (%d vs %d)", len(got), len(want.Packets))
	}
	// Exhausted readers keep returning io.EOF.
	if _, _, err := rd.NextWindow(ctx, 7); err != io.EOF {
		t.Fatalf("second EOF read = %v, want io.EOF", err)
	}
}

// TestTraceReaderBudget pins the ingestion budget contract: the reader
// trips at exactly the SimEvents cap with resource "trace-packets", stage
// "ingest", returning the partial window read before the trip — matching
// ReadPcapContext's behavior on the same capture.
func TestTraceReaderBudget(t *testing.T) {
	raw, _ := pcapFixture(t, 100)
	ctx := budget.With(context.Background(), budget.Limits{SimEvents: 60})
	rd, err := NewTraceReader(bytes.NewReader(raw), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	w1, start, err := rd.NextWindow(ctx, 50)
	if err != nil || start != 0 || len(w1.Packets) != 50 {
		t.Fatalf("window 1: %d packets at %d, err %v", len(w1.Packets), start, err)
	}
	w2, start, err := rd.NextWindow(ctx, 50)
	var ee *budget.ExceededError
	if !errors.As(err, &ee) {
		t.Fatalf("want budget trip, got %v", err)
	}
	if ee.Resource != "trace-packets" || ee.Stage != "ingest" || ee.Limit != 60 {
		t.Fatalf("trip = %+v, want trace-packets/ingest limit 60", ee)
	}
	if start != 50 || len(w2.Packets) != 10 {
		t.Fatalf("partial window: %d packets at %d, want 10 at 50", len(w2.Packets), start)
	}
	if ee.Partial.(*Trace) != w2 {
		t.Fatal("error Partial must carry the partial window")
	}
	// A tripped reader is exhausted.
	if _, _, err := rd.NextWindow(ctx, 50); err != io.EOF {
		t.Fatalf("post-trip read = %v, want io.EOF", err)
	}
}

// TestTraceReaderTruncatedCapture chops a capture mid-record — the classic
// interrupted-tcpdump failure — and requires the reader to surface a typed
// *IngestError wrapping pcap.ErrTruncated, carrying the packets read before
// the cut so callers can still simulate the prefix.
func TestTraceReaderTruncatedCapture(t *testing.T) {
	raw, want := pcapFixture(t, 20)
	// Cut inside the final record: drop the last 3 bytes of its payload.
	cut := raw[:len(raw)-3]
	rd, err := NewTraceReader(bytes.NewReader(cut), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	w1, start, err := rd.NextWindow(ctx, 10)
	if err != nil || start != 0 || len(w1.Packets) != 10 {
		t.Fatalf("window 1: %d packets at %d, err %v", len(w1.Packets), start, err)
	}
	w2, start, err := rd.NextWindow(ctx, 100)
	var ie *IngestError
	if !errors.As(err, &ie) {
		t.Fatalf("want *IngestError, got %T: %v", err, err)
	}
	if !errors.Is(err, pcap.ErrTruncated) {
		t.Fatalf("IngestError must unwrap to pcap.ErrTruncated, got %v", err)
	}
	if ie.NF != "fixture" || ie.Start != 10 || start != 10 {
		t.Fatalf("error placement NF=%q Start=%d (window start %d), want fixture/10", ie.NF, ie.Start, start)
	}
	if ie.Partial != w2 || len(w2.Packets) != 9 {
		t.Fatalf("partial window carries %d packets, want the 9 intact records before the cut", len(w2.Packets))
	}
	// The intact prefix matches the undamaged capture byte for byte.
	for i, p := range w2.Packets {
		if !reflect.DeepEqual(p, want.Packets[10+i]) {
			t.Fatalf("partial packet %d differs from the undamaged capture", i)
		}
	}
	// A failed reader is exhausted, matching the budget-trip contract.
	if _, _, err := rd.NextWindow(ctx, 10); err != io.EOF {
		t.Fatalf("post-failure read = %v, want io.EOF", err)
	}
}

// TestTraceReaderUsageAccounting checks the delivered packets land in the
// context's budget-usage accumulator like ReadPcapContext's do.
func TestTraceReaderUsageAccounting(t *testing.T) {
	raw, _ := pcapFixture(t, 40)
	var u budget.Usage
	ctx := budget.WithUsage(context.Background(), &u)
	rd, err := NewTraceReader(bytes.NewReader(raw), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for {
		win, _, err := rd.NextWindow(ctx, 16)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		total += len(win.Packets)
	}
	snap := u.Snapshot(budget.Limits{})
	if snap.TracePackets != int64(total) || total != 40 {
		t.Fatalf("usage trace-packets = %d, delivered %d, want 40", snap.TracePackets, total)
	}
}

// TestReadPcapContextBudget pins what ReadPcapContext returns on an
// ingestion budget trip: no trace, a typed trace-packets/ingest error whose
// Partial holds exactly the records read up to the cap, and those records
// added to the context's budget usage.
func TestReadPcapContextBudget(t *testing.T) {
	raw, want := pcapFixture(t, 100)
	var u budget.Usage
	ctx := budget.WithUsage(budget.With(context.Background(), budget.Limits{SimEvents: 60}), &u)
	tr, err := ReadPcapContext(ctx, bytes.NewReader(raw), "fixture")
	if tr != nil {
		t.Fatal("a tripped read must not return a trace")
	}
	var ee *budget.ExceededError
	if !errors.As(err, &ee) {
		t.Fatalf("want budget trip, got %T: %v", err, err)
	}
	if ee.Resource != "trace-packets" || ee.Stage != "ingest" || ee.Limit != 60 || ee.NF != "fixture" {
		t.Fatalf("trip = %+v, want trace-packets/ingest limit 60 for fixture", ee)
	}
	part, ok := ee.Partial.(*Trace)
	if !ok || len(part.Packets) != 60 {
		t.Fatalf("Partial = %T, want the 60 records read before the trip", ee.Partial)
	}
	if !reflect.DeepEqual(part.Packets, want.Packets[:60]) {
		t.Fatal("partial records differ from the capture's first 60")
	}
	if got := u.Snapshot(budget.Limits{}).TracePackets; got != 60 {
		t.Fatalf("usage trace-packets = %d, want the 60 records read", got)
	}
}

// TestReadPcapContextCanceled requires a cancelled read to return a typed
// cancellation carrying the (empty) trace read so far.
func TestReadPcapContextCanceled(t *testing.T) {
	raw, _ := pcapFixture(t, 20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr, err := ReadPcapContext(ctx, bytes.NewReader(raw), "fixture")
	if tr != nil {
		t.Fatal("a cancelled read must not return a trace")
	}
	var ce *budget.CanceledError
	if !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want *budget.CanceledError wrapping context.Canceled, got %T: %v", err, err)
	}
	if ce.Stage != "ingest" || ce.NF != "fixture" {
		t.Fatalf("cancellation = %+v, want stage ingest for fixture", ce)
	}
	if part, ok := ce.Partial.(*Trace); !ok || len(part.Packets) != 0 {
		t.Fatalf("Partial = %#v, want an empty trace", ce.Partial)
	}
}

// TestReadPcapContextTruncated requires a capture cut mid-record to fail
// with an error that unwraps to pcap.ErrTruncated, and an empty capture to
// read as an empty named trace.
func TestReadPcapContextTruncated(t *testing.T) {
	raw, _ := pcapFixture(t, 20)
	tr, err := ReadPcapContext(context.Background(), bytes.NewReader(raw[:len(raw)-3]), "fixture")
	if tr != nil || !errors.Is(err, pcap.ErrTruncated) {
		t.Fatalf("truncated capture: trace %v, err %v; want nil and pcap.ErrTruncated", tr, err)
	}
	var buf bytes.Buffer
	if err := (&Trace{}).WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err = ReadPcapContext(context.Background(), &buf, "empty")
	if err != nil || tr == nil || tr.Name != "empty" || len(tr.Packets) != 0 {
		t.Fatalf("empty capture: trace %+v, err %v; want an empty trace named empty", tr, err)
	}
}
