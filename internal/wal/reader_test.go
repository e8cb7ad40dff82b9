package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// buildChainLog appends a mix of record shapes (small slot ops, CLRs, and
// full-page-image-sized payloads that cross block boundaries) and returns
// their LSNs.
func buildChainLog(t *testing.T, m *Manager, n int) []LSN {
	t.Helper()
	lsns := make([]LSN, 0, n)
	prev := NilLSN
	big := bytes.Repeat([]byte{0xAB}, 8192)
	for i := 0; i < n; i++ {
		r := &Record{
			Type:        TypeUpdate,
			TxnID:       uint64(i%7) + 1,
			PageID:      uint32(i % 13),
			ObjectID:    7,
			PrevLSN:     prev,
			PrevPageLSN: prev,
			Slot:        uint16(i),
			WallClock:   time.Now().UnixNano(),
			OldData:     []byte("old-value-abcdefgh"),
			NewData:     []byte("new-value-abcdefgh"),
		}
		switch i % 11 {
		case 3:
			r.Type = TypeCLR
			r.CLRType = TypeInsert
			r.UndoNextLSN = prev
		case 5:
			r.Type = TypeImage
			r.NewData = big
			r.PrevImageLSN = prev
		}
		lsn, err := m.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
		prev = lsn
	}
	return lsns
}

// TestChainReaderMatchesManagerRead walks the log backwards through a
// ChainReader and checks every field against Manager.Read.
func TestChainReaderMatchesManagerRead(t *testing.T) {
	m, err := Open(filepath.Join(t.TempDir(), "wal.log"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	lsns := buildChainLog(t, m, 500)
	// Half flushed, half still in the in-memory tail: the reader must serve
	// both.
	if err := m.Flush(lsns[len(lsns)/2]); err != nil {
		t.Fatal(err)
	}

	rdr := m.ChainReader()
	defer rdr.Close()
	for i := len(lsns) - 1; i >= 0; i-- {
		want, err := m.Read(lsns[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := rdr.Read(lsns[i])
		if err != nil {
			t.Fatalf("chain read %v: %v", lsns[i], err)
		}
		if err := diffRecord(got, want); err != nil {
			t.Fatal(err)
		}
	}
}

// diffRecord reports the first difference between two records.
func diffRecord(got, want *Record) error {
	if got.LSN != want.LSN || got.Type != want.Type || got.TxnID != want.TxnID ||
		got.PrevLSN != want.PrevLSN || got.PageID != want.PageID ||
		got.ObjectID != want.ObjectID || got.PrevPageLSN != want.PrevPageLSN ||
		got.UndoNextLSN != want.UndoNextLSN || got.PrevImageLSN != want.PrevImageLSN ||
		got.CLRType != want.CLRType || got.Flags != want.Flags ||
		got.Slot != want.Slot || got.WallClock != want.WallClock {
		return fmt.Errorf("record %v mismatch:\n got %+v\nwant %+v", want.LSN, got, want)
	}
	if !bytes.Equal(got.OldData, want.OldData) || !bytes.Equal(got.NewData, want.NewData) ||
		!bytes.Equal(got.Extra, want.Extra) {
		return fmt.Errorf("record %v payload mismatch", want.LSN)
	}
	return nil
}

// TestChainReaderSeesUnflushedTail reads a record that only exists in the
// append buffer, then again after more appends grow the log past the pinned
// partial block (exercising the stale-short refresh path).
func TestChainReaderSeesUnflushedTail(t *testing.T) {
	m, err := Open(filepath.Join(t.TempDir(), "wal.log"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	first, err := m.Append(&Record{Type: TypeInsert, PageID: 1, NewData: []byte("a")})
	if err != nil {
		t.Fatal(err)
	}
	rdr := m.ChainReader()
	defer rdr.Close()
	if rec, err := rdr.Read(first); err != nil || rec.Type != TypeInsert {
		t.Fatalf("tail read: %v %v", rec, err)
	}
	// Append more; the previously pinned partial block is now stale-short
	// for the new record's offset.
	var last LSN
	for i := 0; i < 50; i++ {
		last, err = m.Append(&Record{Type: TypeUpdate, PageID: 1, Slot: uint16(i),
			OldData: []byte("old"), NewData: []byte("new")})
		if err != nil {
			t.Fatal(err)
		}
	}
	rec, err := rdr.Read(last)
	if err != nil {
		t.Fatalf("read after growth: %v", err)
	}
	if rec.Slot != 49 {
		t.Fatalf("got slot %d, want 49", rec.Slot)
	}
}

// TestChainReaderTruncation verifies the truncation boundary is honored
// without the manager lock.
func TestChainReaderTruncation(t *testing.T) {
	m, err := Open(filepath.Join(t.TempDir(), "wal.log"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	lsns := buildChainLog(t, m, 10)
	if err := m.Truncate(lsns[5]); err != nil {
		t.Fatal(err)
	}
	rdr := m.ChainReader()
	defer rdr.Close()
	if _, err := rdr.Read(lsns[2]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("read below truncation: %v", err)
	}
	if _, err := rdr.Read(lsns[7]); err != nil {
		t.Fatalf("read above truncation: %v", err)
	}
}

// TestChainReaderZeroAllocSteadyState asserts the core acceptance
// criterion: once the walked blocks are pinned, a chain hop allocates
// nothing.
func TestChainReaderZeroAllocSteadyState(t *testing.T) {
	m, err := Open(filepath.Join(t.TempDir(), "wal.log"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// Small records only: all within a handful of blocks.
	prev := NilLSN
	var lsns []LSN
	for i := 0; i < 200; i++ {
		lsn, err := m.Append(&Record{Type: TypeUpdate, PageID: 3, PrevPageLSN: prev,
			Slot: uint16(i), OldData: []byte("old-payload-123"), NewData: []byte("new-payload-123")})
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
		prev = lsn
	}
	rdr := m.ChainReader()
	defer rdr.Close()
	// Warm the pinned set.
	for i := len(lsns) - 1; i >= 0; i-- {
		if _, err := rdr.Read(lsns[i]); err != nil {
			t.Fatal(err)
		}
	}
	i := len(lsns)
	allocs := testing.AllocsPerRun(len(lsns), func() {
		i--
		if i < 0 {
			i = len(lsns) - 1
		}
		if _, err := rdr.Read(lsns[i]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state chain hop allocates: %.2f allocs/record", allocs)
	}
}

// TestChainReaderZeroAllocBlockMiss: once the shared cache is full, a block
// miss recycles a victim's buffer and the reader's own slot, so a walk over
// a log several times the cache's size allocates nothing.
func TestChainReaderZeroAllocBlockMiss(t *testing.T) {
	m, err := Open(filepath.Join(t.TempDir(), "wal.log"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.SetCacheBlocks(1)
	cacheBytes := int64(cacheUnitBlocks * readBlockSize)
	var lsns []LSN
	for m.Size() < 8*cacheBytes {
		lsn, err := m.Append(&Record{Type: TypeUpdate, PageID: 3, Slot: uint16(len(lsns)),
			OldData: []byte("old-payload-123"), NewData: []byte("new-payload-123")})
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	if err := m.Flush(lsns[len(lsns)-1]); err != nil {
		t.Fatal(err)
	}
	rdr := m.ChainReader()
	defer rdr.Close()
	walk := func() {
		for i := len(lsns) - 1; i >= 0; i-- {
			if _, err := rdr.Read(lsns[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	walk() // fills the cache and sizes the reader's spill buffer
	before := m.UndoReads.Load()
	const runs = 3
	allocs := testing.AllocsPerRun(runs, walk)
	// AllocsPerRun walks once more to warm up; every walk misses every block.
	if misses, blocks := (m.UndoReads.Load()-before)/(runs+1), m.Size()/readBlockSize; misses < blocks {
		t.Fatalf("walk missed %d blocks, want at least %d: the cache is not cold", misses, blocks)
	}
	if allocs > 0 {
		t.Fatalf("walk with every block missing allocates: %.0f allocs per walk", allocs)
	}
}

// TestBlockPathHammer races several ChainReaders and Manager.Read callers
// over a log many times the block cache's size, so blocks are evicted and
// their buffers recycled constantly while other readers copy them. Every
// record read must match what was appended. Run under -race in CI.
func TestBlockPathHammer(t *testing.T) {
	m, err := Open(filepath.Join(t.TempDir(), "wal.log"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.SetCacheBlocks(1)
	var want []*Record
	prev := NilLSN
	for i := 0; i < 400; i++ {
		r := &Record{Type: TypeUpdate, TxnID: uint64(i%5) + 1, PageID: uint32(i % 17),
			PrevLSN: prev, PrevPageLSN: prev, Slot: uint16(i), WallClock: int64(i) * 1000,
			OldData: []byte(fmt.Sprintf("old-%d", i)), NewData: []byte(fmt.Sprintf("new-%d", i))}
		if i%9 == 4 {
			r.Type = TypeImage
			r.NewData = bytes.Repeat([]byte{byte(i)}, 8192)
		}
		lsn, err := m.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		r.LSN = lsn
		want = append(want, r)
		prev = lsn
	}
	// Most of the log on disk, the rest still in the tail buffer.
	if err := m.Flush(want[3*len(want)/4].LSN); err != nil {
		t.Fatal(err)
	}
	if m.Size() < 8*cacheUnitBlocks*readBlockSize {
		t.Fatalf("log of %d bytes does not overrun the cache", m.Size())
	}

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			rdr := m.ChainReader()
			defer rdr.Close()
			for n := 0; n < 1500; n++ {
				w := want[rng.Intn(len(want))]
				var got *Record
				var err error
				if g%2 == 0 {
					got, err = rdr.Read(w.LSN)
				} else {
					got, err = m.Read(w.LSN)
				}
				if err == nil {
					err = diffRecord(got, w)
				}
				if err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestChainReaderImageSpansThreeBlocks reads an 8 KiB page-image record
// spanning three blocks: from the tail while the reader holds a stale-short
// copy of its first block and its last block is partial (the refresh path),
// again after more appends extend that partial block, and from disk.
func TestChainReaderImageSpansThreeBlocks(t *testing.T) {
	m, err := Open(filepath.Join(t.TempDir(), "wal.log"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	small := func(i int) *Record {
		return &Record{Type: TypeUpdate, PageID: 9, Slot: uint16(i), NewData: []byte("s")}
	}
	appendRec := func(r *Record) *Record {
		lsn, err := m.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		r.LSN = lsn
		return r
	}
	// Stop mid-block, at least one small record past a block start.
	for i := 0; m.Size()%readBlockSize < readBlockSize/2; i++ {
		appendRec(small(i))
	}
	rdr := m.ChainReader()
	defer rdr.Close()
	read := func(want *Record) {
		t.Helper()
		got, err := rdr.Read(want.LSN)
		if err == nil {
			err = diffRecord(got, want)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	before := appendRec(small(-1))
	read(before) // the reader now holds a partial copy of the image's first block
	img := appendRec(&Record{Type: TypeImage, PageID: 9, PrevImageLSN: before.LSN,
		NewData: bytes.Repeat([]byte("page-image"), 8192/10)})
	first, last := int64(img.LSN-1)/readBlockSize, (m.Size()-1)/readBlockSize
	if last-first != 2 || m.Size()%readBlockSize == 0 {
		t.Fatalf("image spans blocks %d..%d, want three ending in a partial block", first, last)
	}
	read(img)
	after := appendRec(small(-2))
	read(after) // extends the partial block the reader holds
	read(img)
	read(before)

	if err := m.Flush(after.LSN); err != nil {
		t.Fatal(err)
	}
	m.InvalidateCache()
	cold := m.ChainReader()
	defer cold.Close()
	reads := m.UndoReads.Load()
	got, err := cold.Read(img.LSN)
	if err == nil {
		err = diffRecord(got, img)
	}
	if err != nil {
		t.Fatal(err)
	}
	if n := m.UndoReads.Load() - reads; n != 3 {
		t.Fatalf("cold image read issued %d block reads, want 3", n)
	}
	if got, err = m.Read(img.LSN); err == nil {
		err = diffRecord(got, img)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestTimeIndexSampling verifies the sparse index samples commits, resolves
// floors, and round-trips through checkpoint encode/decode.
func TestTimeIndexSampling(t *testing.T) {
	m, err := Open(filepath.Join(t.TempDir(), "wal.log"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	base := time.Date(2012, 3, 22, 12, 0, 0, 0, time.UTC).UnixNano()
	pad := bytes.Repeat([]byte{0x11}, 4096)
	var commits []TimeSample
	for i := 0; i < 100; i++ {
		// Filler so commits land in different sample windows.
		for j := 0; j < 8; j++ {
			if _, err := m.Append(&Record{Type: TypeUpdate, PageID: 1, OldData: pad, NewData: pad}); err != nil {
				t.Fatal(err)
			}
		}
		wc := base + int64(i)*int64(time.Second)
		lsn, err := m.Append(&Record{Type: TypeCommit, TxnID: uint64(i + 1), PageID: NoPage, WallClock: wc})
		if err != nil {
			t.Fatal(err)
		}
		commits = append(commits, TimeSample{WallClock: wc, LSN: lsn})
	}
	if n := m.TimeIndexLen(); n == 0 {
		t.Fatal("no samples taken")
	}

	// A floor query between two commits must land on a sampled commit at or
	// before the target, never after.
	target := base + 50*int64(time.Second) + int64(500*time.Millisecond)
	s, ok := m.TimeFloor(target)
	if !ok {
		t.Fatal("no floor found")
	}
	if s.WallClock > target {
		t.Fatalf("floor %d past target %d", s.WallClock, target)
	}

	// Round-trip through the checkpoint payload.
	all := m.TimeSamplesSince(NilLSN)
	data := CheckpointData{BeginLSN: 1, ATT: []ATTEntry{{TxnID: 9, LastLSN: 7, BeginLSN: 3}}, Times: all}
	dec, err := DecodeCheckpoint(EncodeCheckpoint(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Times) != len(all) || len(dec.ATT) != 1 {
		t.Fatalf("round trip lost entries: %d/%d samples", len(dec.Times), len(all))
	}
	for i := range all {
		if dec.Times[i] != all[i] {
			t.Fatalf("sample %d mismatch", i)
		}
	}

	// Legacy payload (no trailer) still decodes.
	legacy := EncodeCheckpoint(CheckpointData{BeginLSN: 1, ATT: data.ATT})
	if dec, err := DecodeCheckpoint(legacy[:24+24*1]); err != nil || len(dec.Times) != 0 {
		t.Fatalf("legacy decode: %v, %d samples", err, len(dec.Times))
	}

	// Seeding drops out-of-order and truncated samples.
	if err := m.Truncate(commits[10].LSN); err != nil {
		t.Fatal(err)
	}
	m.SeedTimeIndex(all)
	if s, ok := m.TimeFloor(base + 5*int64(time.Second)); ok && s.LSN < commits[10].LSN {
		t.Fatalf("seed kept truncated sample %+v", s)
	}
}
