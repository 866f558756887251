package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/quick"
	"time"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, LinkTypeEthernet, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := time.Unix(1600000000, 123456789)
	pkts := [][]byte{{1, 2, 3}, {}, bytes.Repeat([]byte{0xaa}, 1500)}
	for i, p := range pkts {
		if err := w.WritePacket(ts.Add(time.Duration(i)*time.Microsecond), p); err != nil {
			t.Fatal(err)
		}
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	h := r.hdr
	if h.LinkType != LinkTypeEthernet || h.SnapLen != 65535 || !h.Nanosecond {
		t.Errorf("header = %+v", h)
	}
	for i, want := range pkts {
		rec, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(rec.Data, want) {
			t.Errorf("record %d data mismatch (%d vs %d bytes)", i, len(rec.Data), len(want))
		}
		if rec.OrigLen != uint32(len(want)) {
			t.Errorf("record %d origlen = %d", i, rec.OrigLen)
		}
		wantTS := ts.Add(time.Duration(i) * time.Microsecond)
		if !rec.Timestamp.Equal(wantTS) {
			t.Errorf("record %d ts = %v, want %v", i, rec.Timestamp, wantTS)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("want io.EOF at end, got %v", err)
	}
}

func TestSnapLenTruncation(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, LinkTypeEthernet, 64)
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 200)
	if err := w.WritePacket(time.Unix(0, 0), big); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Data) != 64 || rec.OrigLen != 200 {
		t.Errorf("got %d captured / %d orig, want 64/200", len(rec.Data), rec.OrigLen)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); err != ErrBadMagic {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, LinkTypeEthernet, 0)
	_ = w.WritePacket(time.Unix(0, 0), []byte{1, 2, 3, 4})
	data := buf.Bytes()
	r, err := NewReader(bytes.NewReader(data[:len(data)-2]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != ErrTruncated {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

func TestBigEndianMicrosecond(t *testing.T) {
	// Hand-build a big-endian microsecond file with one 2-byte packet.
	var buf bytes.Buffer
	hdr := make([]byte, 24)
	binary.BigEndian.PutUint32(hdr[0:], MagicMicroseconds)
	binary.BigEndian.PutUint16(hdr[4:], 2)
	binary.BigEndian.PutUint16(hdr[6:], 4)
	binary.BigEndian.PutUint32(hdr[16:], 65535)
	binary.BigEndian.PutUint32(hdr[20:], uint32(LinkTypeEthernet))
	buf.Write(hdr)
	rec := make([]byte, 16)
	binary.BigEndian.PutUint32(rec[0:], 100) // sec
	binary.BigEndian.PutUint32(rec[4:], 250) // usec
	binary.BigEndian.PutUint32(rec[8:], 2)   // incl
	binary.BigEndian.PutUint32(rec[12:], 2)  // orig
	buf.Write(rec)
	buf.Write([]byte{0xca, 0xfe})

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.hdr.Nanosecond {
		t.Error("should be microsecond resolution")
	}
	got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	want := time.Unix(100, 250000)
	if !got.Timestamp.Equal(want) {
		t.Errorf("ts = %v, want %v", got.Timestamp, want)
	}
	if !bytes.Equal(got.Data, []byte{0xca, 0xfe}) {
		t.Errorf("data = %x", got.Data)
	}
}

func TestRecordExceedsSnapLen(t *testing.T) {
	var buf bytes.Buffer
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:], MagicMicroseconds)
	binary.LittleEndian.PutUint32(hdr[16:], 10) // snaplen 10
	binary.LittleEndian.PutUint32(hdr[20:], 1)
	buf.Write(hdr)
	rec := make([]byte, 16)
	binary.LittleEndian.PutUint32(rec[8:], 100) // incl 100 > snaplen
	binary.LittleEndian.PutUint32(rec[12:], 100)
	buf.Write(rec)
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != ErrSnapLen {
		t.Errorf("err = %v, want ErrSnapLen", err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(payloads [][]byte, secs uint32) bool {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, LinkTypeEthernet, 0)
		if err != nil {
			return false
		}
		ts := time.Unix(int64(secs), 42)
		for _, p := range payloads {
			if len(p) > 65535 {
				p = p[:65535]
			}
			if err := w.WritePacket(ts, p); err != nil {
				return false
			}
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		for _, p := range payloads {
			if len(p) > 65535 {
				p = p[:65535]
			}
			rec, err := r.Next()
			if err != nil || !bytes.Equal(rec.Data, p) {
				return false
			}
		}
		_, err = r.Next()
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestHostileRecordLength crafts a header whose incl_len claims ~4 GB: the
// reader must refuse before allocating, regardless of the declared SnapLen.
func TestHostileRecordLength(t *testing.T) {
	for _, snapLen := range []uint32{0, 0xFFFFFFFF} {
		var buf bytes.Buffer
		hdr := make([]byte, 24)
		binary.LittleEndian.PutUint32(hdr[0:], MagicMicroseconds)
		binary.LittleEndian.PutUint16(hdr[4:], 2)
		binary.LittleEndian.PutUint16(hdr[6:], 4)
		binary.LittleEndian.PutUint32(hdr[16:], snapLen)
		binary.LittleEndian.PutUint32(hdr[20:], uint32(LinkTypeEthernet))
		buf.Write(hdr)
		rec := make([]byte, 16)
		binary.LittleEndian.PutUint32(rec[8:], 0xFFFFFFF0) // incl_len ≈ 4 GB
		binary.LittleEndian.PutUint32(rec[12:], 0xFFFFFFF0)
		buf.Write(rec)

		r, err := NewReader(&buf)
		if err != nil {
			t.Fatalf("snaplen %#x: header rejected: %v", snapLen, err)
		}
		_, err = r.Next()
		if !errors.Is(err, ErrRecordTooLong) {
			t.Errorf("snaplen %#x: Next() = %v, want ErrRecordTooLong", snapLen, err)
		}
	}
}

// TestRecordAtCap confirms the hard cap is inclusive: a record of exactly
// MaxRecordBytes still reads.
func TestRecordAtCap(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, LinkTypeEthernet, MaxRecordBytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WritePacket(time.Unix(0, 0), make([]byte, MaxRecordBytes)); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Data) != MaxRecordBytes {
		t.Errorf("len = %d, want %d", len(rec.Data), MaxRecordBytes)
	}
}
