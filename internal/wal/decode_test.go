package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// writeStreamsMeta hand-builds the sidecar a partitioned log was created
// with: the stream count as a little-endian u64.
func writeStreamsMeta(t *testing.T, dir string, n uint64) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], n)
	if err := os.WriteFile(filepath.Join(dir, streamsMeta), b[:], 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRefusesPartitionedLog: a log directory whose streams.meta names
// more than one stream holds only stream 0's bytes, so opening it must fail
// with ErrPartitionedLog rather than serve a log missing the other streams'
// commits.
func TestOpenRefusesPartitionedLog(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	m, err := OpenStore(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	appendCommits(t, m, 5)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	writeStreamsMeta(t, dir, 4)
	before, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}

	_, err = OpenStore(dir, Config{})
	if !errors.Is(err, ErrPartitionedLog) {
		t.Fatalf("open of a 4-stream log: err = %v, want ErrPartitionedLog", err)
	}
	if !strings.Contains(err.Error(), "4 streams") {
		t.Fatalf("error %q does not name the stream count", err)
	}
	after, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("refused open touched the segments: %v -> %v", before, after)
	}

	// A fresh directory with only the sidecar is refused the same way: no
	// empty log is started beside it.
	fresh := filepath.Join(t.TempDir(), "wal")
	writeStreamsMeta(t, fresh, 2)
	if _, err := OpenStore(fresh, Config{}); !errors.Is(err, ErrPartitionedLog) {
		t.Fatalf("open of an empty 2-stream log: err = %v, want ErrPartitionedLog", err)
	}
	if segs, _ := ListSegments(fresh); len(segs) != 0 {
		t.Fatalf("refused open created %d segments", len(segs))
	}

	// A sidecar naming one stream is a plain log.
	writeStreamsMeta(t, dir, 1)
	m, err = OpenStore(dir, Config{})
	if err != nil {
		t.Fatalf("open of a 1-stream log: %v", err)
	}
	m.Close()
}

// commitWithStreamExtension hand-builds the body of a commit record carrying
// the retired multi-stream trailer: csn, dependency count, one position per
// stream, as uvarints after the last payload.
func commitWithStreamExtension() []byte {
	body := (&Record{Type: TypeCommit, TxnID: 7, PageID: NoPage, WallClock: 42}).marshal(nil)
	for _, v := range []uint64{9, 2, 0, 1234} {
		body = binary.AppendUvarint(body, v)
	}
	return body
}

// TestRecordRejectsTrailingBytes: a record body with bytes after its last
// payload is an error on every decode path, never silently ignored.
func TestRecordRejectsTrailingBytes(t *testing.T) {
	body := commitWithStreamExtension()
	if _, err := unmarshal(body); err == nil {
		t.Fatal("commit body with a trailing extension decoded")
	}
	if _, err := DecodeBody(append((&Record{Type: TypeInsert, PageID: 1}).marshal(nil), 0)); err == nil {
		t.Fatal("insert body with one trailing byte decoded")
	}

	// Framed with a valid CRC and stored in a log, it fails the scan and
	// the random read instead of vanishing from either.
	m, err := OpenStore(filepath.Join(t.TempDir(), "wal"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	good := frame(nil, &Record{Type: TypeBegin, TxnID: 7, PageID: NoPage})
	bad := make([]byte, frameHeader, frameHeader+len(body))
	binary.LittleEndian.PutUint32(bad, uint32(len(body)))
	bad = append(bad, body...)
	binary.LittleEndian.PutUint32(bad[4:], crc32.ChecksumIEEE(body))
	if _, err := m.AppendRaw(append(good, bad...)); err != nil {
		t.Fatal(err)
	}
	if err := m.Scan(1, func(*Record) (bool, error) { return true, nil }); err == nil {
		t.Fatal("scan passed over a record with trailing bytes")
	}
	if _, err := m.Read(LSN(len(good) + 1)); err == nil {
		t.Fatal("read of a record with trailing bytes succeeded")
	}
}

// TestCheckpointRejectsTrailingBytes: bytes after the timeline section —
// such as the retired per-stream begin/discard section — fail the decode.
func TestCheckpointRejectsTrailingBytes(t *testing.T) {
	d := CheckpointData{BeginLSN: 10, PrevEnd: 2, TLI: 1,
		ATT: []ATTEntry{{TxnID: 3, LastLSN: 9, BeginLSN: 4}}}
	payload := EncodeCheckpoint(d)
	if _, err := DecodeCheckpoint(payload); err != nil {
		t.Fatal(err)
	}
	put := func(b []byte, vs ...uint64) []byte {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		return b
	}
	// nStreams=2, two begins, nDiscarded=0.
	streams := put(append([]byte(nil), payload...), 2, 100, 200, 0)
	if _, err := DecodeCheckpoint(streams); err == nil {
		t.Fatal("checkpoint payload with a stream section decoded")
	}
	if _, err := DecodeCheckpoint(append(payload, 0)); err == nil {
		t.Fatal("checkpoint payload with one trailing byte decoded")
	}
	// A multi-stream payload from a node without timelines wrote a TLI-0
	// timeline section ahead of its stream section.
	noTLI := put(EncodeCheckpoint(CheckpointData{BeginLSN: 10}), 0, 0)
	if _, err := DecodeCheckpoint(noTLI); err == nil {
		t.Fatal("checkpoint payload with a TLI-0 timeline section decoded")
	}
	if _, err := DecodeCheckpoint(put(noTLI, 1, 100, 0)); err == nil {
		t.Fatal("TLI-0 multi-stream checkpoint payload decoded")
	}
}

// FuzzRecordUnmarshal: decoding arbitrary bytes never panics, and whatever
// decodes is a fixed point of marshal∘unmarshal.
func FuzzRecordUnmarshal(f *testing.F) {
	full := &Record{Type: TypeUpdate, TxnID: 42, PrevLSN: 100, PageID: 7, ObjectID: 3,
		PrevPageLSN: 90, UndoNextLSN: 80, PrevImageLSN: 70, CLRType: TypeInsert,
		Slot: 5, WallClock: 1234567890, OldData: []byte("old"), NewData: []byte("new"), Extra: []byte{1, 2}}
	commit := (&Record{Type: TypeCommit, TxnID: 7, PageID: NoPage, WallClock: 42}).marshal(nil)
	f.Add(full.marshal(nil))
	f.Add(commit)
	for cut := 0; cut < len(commit); cut++ {
		f.Add(commit[:cut]) // torn bodies
	}
	f.Add(commitWithStreamExtension())
	f.Add(make([]byte, 10))
	f.Fuzz(func(t *testing.T, body []byte) {
		r, err := unmarshal(body)
		if err != nil {
			return
		}
		again := r.marshal(nil)
		if len(again) != r.marshaledSize() {
			t.Fatalf("marshaled %d bytes, marshaledSize says %d", len(again), r.marshaledSize())
		}
		r2, err := unmarshal(again)
		if err != nil {
			t.Fatalf("re-encoded record fails to decode: %v", err)
		}
		if !reflect.DeepEqual(r, r2) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", r2, r)
		}
	})
}

// FuzzDecodeCheckpoint: decoding arbitrary payloads never panics, and
// whatever decodes re-encodes to a payload that decodes to the same value.
func FuzzDecodeCheckpoint(f *testing.F) {
	att := []ATTEntry{{TxnID: 1, LastLSN: 200, BeginLSN: 150}, {TxnID: 9, LastLSN: 300, BeginLSN: 40}}
	f.Add(EncodeCheckpoint(CheckpointData{BeginLSN: 123, PrevEnd: 45, ATT: att}))
	f.Add(EncodeCheckpoint(CheckpointData{BeginLSN: 1}))
	timed := EncodeCheckpoint(CheckpointData{BeginLSN: 1, ATT: att[:1],
		Times: []TimeSample{{WallClock: 5, LSN: 10}, {WallClock: 9, LSN: 70}}})
	f.Add(timed)
	f.Add(timed[:24+24]) // pre-time-index payload
	f.Add(EncodeCheckpoint(CheckpointData{BeginLSN: 7, TLI: 3,
		History: TimelineHistory{{TLI: 1, End: 100}, {TLI: 2, End: 250}}}))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, payload []byte) {
		d, err := DecodeCheckpoint(payload)
		if err != nil {
			return
		}
		d2, err := DecodeCheckpoint(EncodeCheckpoint(d))
		if err != nil {
			t.Fatalf("re-encoded checkpoint fails to decode: %v", err)
		}
		if !reflect.DeepEqual(d, d2) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", d2, d)
		}
	})
}

// memLog serves an in-memory log the way Manager.readAt serves a real one:
// a short read at the end, io.EOF at or past it.
func memLog(b []byte) func([]byte, int64) (int, error) {
	return func(dst []byte, off int64) (int, error) {
		if off >= int64(len(b)) {
			return 0, io.EOF
		}
		return copy(dst, b[off:]), nil
	}
}

// FuzzScanFrames: scanning arbitrary bytes never panics, never allocates
// more than the input's length plus one window, and yields exactly the
// prefix of frames whose CRCs verify (NextFrame is the reference parser);
// a verified frame that does not decode fails the scan.
func FuzzScanFrames(f *testing.F) {
	var log []byte
	var ends []int
	for i := 0; i < 10; i++ {
		log = frame(log, &Record{Type: TypeCommit, TxnID: uint64(i + 1), PageID: NoPage, WallClock: int64(1000 + i)})
		ends = append(ends, len(log))
	}
	f.Add(log)
	f.Add(log[:ends[8]+5]) // torn 5 bytes into the last record
	f.Add(log[:ends[4]+3]) // torn inside a header
	corrupt := bytes.Clone(log[:ends[1]])
	copy(corrupt[ends[0]+frameHeader+3:], []byte{0xFF, 0xFF, 0xFF}) // second body corrupted
	f.Add(corrupt)
	// A garbage header at the tail claiming a body of nearly MaxRecordBytes.
	f.Add(append(bytes.Clone(log), 0xF0, 0xFF, 0xFF, 0x03, 1, 2, 3, 4))
	// A frame larger than a window, whole and torn.
	big := frame(bytes.Clone(log[:ends[0]]), recordOfFrameSize(scanWindowBytes+100, 'b'))
	f.Add(big)
	f.Add(big[:len(big)-1])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		type frameAt struct {
			off int
			rec *Record
		}
		var want []frameAt
		wantErr := false
		for off := 0; ; {
			body, size, ok, err := NextFrame(data[off:])
			if !ok || err != nil {
				break
			}
			r, err := DecodeBody(body)
			if err != nil {
				wantErr = true
				break
			}
			want = append(want, frameAt{off, r})
			off += size
		}

		// The bare scan's allocations, with a callback that keeps nothing.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n := 0
		bareErr := scanFrames(memLog(data), 1, func(*Record) (bool, error) { n++; return true, nil })
		runtime.ReadMemStats(&after)
		const slack = 64 << 10 // allocator accounting granularity, error values
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(data))+uint64(unsafe.Sizeof(scanWindow{}))+slack; got > limit {
			t.Fatalf("scan of %d bytes allocated %d bytes, limit %d", len(data), got, limit)
		}

		var got []frameAt
		err := scanFrames(memLog(data), 1, func(r *Record) (bool, error) {
			c := *r
			c.OldData, c.NewData, c.Extra = bytes.Clone(r.OldData), bytes.Clone(r.NewData), bytes.Clone(r.Extra)
			got = append(got, frameAt{int(r.LSN - 1), &c})
			return true, nil
		})
		if (err != nil) != wantErr || (bareErr != nil) != wantErr {
			t.Fatalf("scan error %v (bare scan %v), want error: %v", err, bareErr, wantErr)
		}
		if len(got) != len(want) || n != len(want) {
			t.Fatalf("scan yielded %d frames (bare scan %d), want %d", len(got), n, len(want))
		}
		for i := range want {
			want[i].rec.LSN = LSN(want[i].off + 1)
			if got[i].off != want[i].off || !reflect.DeepEqual(got[i].rec, want[i].rec) {
				t.Fatalf("frame %d: got %+v at %d, want %+v at %d", i, got[i].rec, got[i].off, want[i].rec, want[i].off)
			}
		}
	})
}
