package wal

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
)

// appendedFrame is what Append was given for one record: its LSN, type and
// encoded body.
type appendedFrame struct {
	lsn  LSN
	typ  Type
	body []byte
}

// recordOfFrameSize returns an insert record whose framed size is exactly
// size bytes.
func recordOfFrameSize(size int, fill byte) *Record {
	r := &Record{Type: TypeInsert, TxnID: 3, PageID: 9, Slot: 1}
	n := size - frameHeader - 16
	for {
		r.NewData = bytes.Repeat([]byte{fill}, n)
		got := r.ApproxSize()
		if got == size {
			return r
		}
		n += size - got
	}
}

// TestScanWindowOracle: a scan reproduces, frame for frame, what Append was
// given — over records straddling 4 KiB and 256 KiB boundaries, a frame of
// exactly one window, frames just past one window and of 1 MiB, segment
// rotation, the buffer a flush is writing and the unflushed tail — from
// several start LSNs.
func TestScanWindowOracle(t *testing.T) {
	m, err := OpenStore(filepath.Join(t.TempDir(), "wal"), Config{SegmentBytes: 96 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	rng := rand.New(rand.NewSource(14))
	var log []appendedFrame
	add := func(r *Record) int {
		body := r.marshal(nil)
		lsn, err := m.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		log = append(log, appendedFrame{lsn, r.Type, body})
		return len(log) - 1
	}
	addRandom := func(n int) {
		for i := 0; i < n; i++ {
			data := make([]byte, 20+rng.Intn(6000))
			rng.Read(data)
			add(&Record{Type: TypeUpdate, TxnID: uint64(i), PageID: uint32(rng.Intn(500)), Slot: uint16(i),
				PrevLSN: LSN(rng.Int63n(1 << 30)), WallClock: rng.Int63(), OldData: data[:len(data)/2], NewData: data})
		}
	}

	addRandom(200)
	exact := add(recordOfFrameSize(scanWindowBytes, 'w'))
	addRandom(100)
	past := add(recordOfFrameSize(scanWindowBytes+1, 'p'))
	addRandom(50)
	huge := add(recordOfFrameSize(1<<20, 'h'))
	addRandom(200)
	if err := m.Flush(m.NextLSN() - 1); err != nil {
		t.Fatal(err)
	}
	flushing := len(log)
	addRandom(30)

	// Scan from each start of interest: every scan must reproduce the rest
	// of the log exactly.
	check := func(starts ...int) error {
		for _, i := range starts {
			j := i
			err := m.Scan(log[i].lsn, func(r *Record) (bool, error) {
				if j >= len(log) {
					return false, fmt.Errorf("scan overran the %d appended records at %v", len(log), r.LSN)
				}
				w := log[j]
				if r.LSN != w.lsn || r.Type != w.typ || !bytes.Equal(r.marshal(nil), w.body) {
					return false, fmt.Errorf("record %d: got %v %v (%d bytes), want %v %v (%d bytes)",
						j, r.LSN, r.Type, r.marshaledSize(), w.lsn, w.typ, len(w.body))
				}
				j++
				return true, nil
			})
			if err != nil {
				return fmt.Errorf("scan from record %d: %w", i, err)
			}
			if j != len(log) {
				return fmt.Errorf("scan from record %d stopped at record %d of %d", i, j, len(log))
			}
		}
		return nil
	}

	// While the flush of the last records is in flight, their bytes are
	// served from the flushing buffer; records appended meanwhile are in
	// the tail. The hook runs inside the flush, so it reports instead of
	// failing the test there.
	tail := -1
	var inFlight error
	m.syncHook = func() {
		if tail >= 0 {
			return
		}
		tail = len(log)
		addRandom(30)
		inFlight = check(0, 1, exact, past, huge, flushing, tail-1, tail, len(log)-1)
	}
	if err := m.Flush(log[len(log)-1].lsn); err != nil {
		t.Fatal(err)
	}
	m.syncHook = nil
	if tail != len(log)-30 || tail == flushing {
		t.Fatal("the flush hook did not run with records in flight")
	}
	if inFlight != nil {
		t.Fatalf("flush in flight: %v", inFlight)
	}
	if err := check(0, exact, past, huge, flushing, tail, len(log)-1); err != nil {
		t.Fatalf("on disk: %v", err)
	}

	// The log must actually cover what the test claims.
	var straddle4K, straddleWindow int
	for _, f := range log {
		first, last := int64(f.lsn-1), int64(f.lsn-1)+int64(frameHeader+len(f.body))-1
		if first/(4<<10) != last/(4<<10) {
			straddle4K++
		}
		if first/scanWindowBytes != last/scanWindowBytes {
			straddleWindow++
		}
	}
	if straddle4K < 100 || straddleWindow < 5 {
		t.Fatalf("%d records straddle 4 KiB and %d straddle 256 KiB boundaries; want more", straddle4K, straddleWindow)
	}
	if segs := m.Segments(); len(segs) < 10 {
		t.Fatalf("log spans %d segments, want a rotation every 96 KiB", len(segs))
	}
}

// TestScanAllocsIndependentOfLength: a scan decodes every record in place
// into one pooled window, so its allocations do not grow with the log.
func TestScanAllocsIndependentOfLength(t *testing.T) {
	allocs := func(n int) float64 {
		m := testManager(t)
		for i := 0; i < n; i++ {
			if _, err := m.Append(&Record{Type: TypeInsert, TxnID: uint64(i), PageID: uint32(i % 97),
				NewData: []byte("a row of the allocation test")}); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Flush(m.NextLSN() - 1); err != nil {
			t.Fatal(err)
		}
		seen := 0
		a := testing.AllocsPerRun(10, func() {
			seen = 0
			if err := m.Scan(1, func(*Record) (bool, error) { seen++; return true, nil }); err != nil {
				t.Fatal(err)
			}
		})
		if seen != n {
			t.Fatalf("scan saw %d of %d records", seen, n)
		}
		return a
	}
	small, large := allocs(100), allocs(10000)
	if large != small || large > 2 {
		t.Fatalf("scan of 100 records: %v allocs, of 10000 records: %v allocs; want the same small constant", small, large)
	}
}
