package wal

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"
)

func openTailStore(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := OpenStore(filepath.Join(t.TempDir(), "wal"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// appended is one hammer append as observed by its writer.
type appended struct {
	lsn  LSN
	size int
	id   uint64
}

// hammerAppenders drives `writers` goroutines of mixed-size appends with
// interleaved WaitDurable/Flush calls, then verifies the fundamental tail
// invariants: LSNs form a gapless frame-aligned sequence, and Scan returns
// exactly the appended records, byte for byte, in LSN order.
func hammerAppenders(t *testing.T, m *Manager, writers, perWriter, maxPayload int) {
	t.Helper()
	var mu sync.Mutex
	var all []appended
	payloads := make(map[uint64][]byte)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWriter; i++ {
				id := uint64(w)<<32 | uint64(i)
				payload := make([]byte, 1+rng.Intn(maxPayload))
				for j := range payload {
					payload[j] = byte(id + uint64(j))
				}
				rec := &Record{Type: TypeInsert, TxnID: id, PageID: uint32(w + 1), NewData: payload}
				size := rec.ApproxSize()
				lsn, err := m.Append(rec)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				all = append(all, appended{lsn: lsn, size: size, id: id})
				payloads[id] = payload
				mu.Unlock()
				switch i % 7 {
				case 0:
					if err := m.WaitDurable(lsn); err != nil {
						t.Error(err)
						return
					}
				case 3:
					if err := m.Flush(lsn); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := m.Flush(m.NextLSN() - 1); err != nil {
		t.Fatal(err)
	}

	// LSN continuity: sorted by LSN, reservations tile the log exactly.
	sort.Slice(all, func(i, j int) bool { return all[i].lsn < all[j].lsn })
	next := LSN(1)
	for _, a := range all {
		if a.lsn != next {
			t.Fatalf("reservation gap: lsn %v, want %v", a.lsn, next)
		}
		next = a.lsn + LSN(a.size)
	}
	if got := m.NextLSN(); got != next {
		t.Fatalf("NextLSN %v after appends, want %v", got, next)
	}

	// Scan sees every record exactly once, in order, byte-identical.
	i := 0
	err := m.Scan(1, func(rec *Record) (bool, error) {
		if i >= len(all) {
			return false, fmt.Errorf("scan overran %d appended records at %v", len(all), rec.LSN)
		}
		want := all[i]
		if rec.LSN != want.lsn || rec.TxnID != want.id {
			return false, fmt.Errorf("scan[%d]: lsn %v txn %d, want %v/%d", i, rec.LSN, rec.TxnID, want.lsn, want.id)
		}
		if !bytes.Equal(rec.NewData, payloads[want.id]) {
			return false, fmt.Errorf("scan[%d]: payload mismatch at %v", i, rec.LSN)
		}
		i++
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(all) {
		t.Fatalf("scan saw %d records, want %d", i, len(all))
	}
}

// TestRingHammer races appenders, flushers and the scanner over the
// double-buffered tail. The names are historical: "legacy" was the mutex
// tail's arm beside a lock-free append ring that has since been removed.
func TestRingHammer(t *testing.T) {
	t.Run("legacy", func(t *testing.T) {
		m := openTailStore(t, Config{})
		hammerAppenders(t, m, 8, 150, 2048)
	})
}

// TestTailConcurrentReadersDuringAppend pairs racing appenders with readers
// chasing records the instant Append returns — the bytes they read may sit
// in the active tail, in a buffer mid-flush, or on disk.
func TestTailConcurrentReadersDuringAppend(t *testing.T) {
	m := openTailStore(t, Config{})
	const writers = 6
	const perWriter = 150
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := uint64(w)<<32 | uint64(i)
				payload := []byte(fmt.Sprintf("w%d-i%d", w, i))
				rec := &Record{Type: TypeInsert, TxnID: id, PageID: 1, NewData: payload}
				lsn, err := m.Append(rec)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := m.Read(lsn)
				if err != nil {
					t.Errorf("read-after-append %v: %v", lsn, err)
					return
				}
				if got.TxnID != id || !bytes.Equal(got.NewData, payload) {
					t.Errorf("read-after-append %v: got txn %d", lsn, got.TxnID)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestTailBigFrames interleaves ordinary appends with frames bigger than
// the group-commit byte threshold and bigger than a whole segment: they
// must land in the same gapless byte stream.
func TestTailBigFrames(t *testing.T) {
	m := openTailStore(t, Config{SegmentBytes: 256 << 10})
	var mu sync.Mutex
	var all []appended
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				id := uint64(w)<<32 | uint64(i)
				n := 64
				switch i % 8 {
				case 2:
					n = DefaultGroupCommitMaxBytes + 1024
				case 5:
					n = 256<<10 + 4096 // bigger than a whole segment
				}
				rec := &Record{Type: TypeImage, TxnID: id, PageID: uint32(w + 1), NewData: make([]byte, n)}
				size := rec.ApproxSize()
				lsn, err := m.Append(rec)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				all = append(all, appended{lsn: lsn, size: size, id: id})
				mu.Unlock()
				if i%5 == 0 {
					if err := m.WaitDurable(lsn); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := m.Flush(m.NextLSN() - 1); err != nil {
		t.Fatal(err)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].lsn < all[j].lsn })
	next := LSN(1)
	count := 0
	for _, a := range all {
		if a.lsn != next {
			t.Fatalf("reservation gap: lsn %v, want %v", a.lsn, next)
		}
		next = a.lsn + LSN(a.size)
	}
	err := m.Scan(1, func(rec *Record) (bool, error) {
		if rec.LSN != all[count].lsn || rec.TxnID != all[count].id {
			return false, fmt.Errorf("scan[%d]: %v/%d, want %v/%d",
				count, rec.LSN, rec.TxnID, all[count].lsn, all[count].id)
		}
		count++
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != len(all) {
		t.Fatalf("scan saw %d records, want %d", count, len(all))
	}
}

// TestTailMidFlushRotation runs racing committers over tiny (4 KiB)
// segments so flush buffers constantly straddle segment rotations, then
// reopens the store and verifies every acknowledged commit survived.
func TestTailMidFlushRotation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	m, err := OpenStore(dir, Config{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 6
	const perWriter = 60
	var mu sync.Mutex
	acked := make(map[LSN]uint64)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := uint64(w)<<32 | uint64(i)
				rec := &Record{Type: TypeCommit, TxnID: id, PageID: NoPage,
					NewData: make([]byte, 100+i%700)}
				lsn, err := m.Append(rec)
				if err != nil {
					t.Error(err)
					return
				}
				if err := m.WaitDurable(lsn); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				acked[lsn] = id
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := m.store.close(); err != nil {
		t.Fatal(err)
	}
	m2, err := OpenStore(dir, Config{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := len(m2.Segments()); got < 10 {
		t.Fatalf("only %d segments; rotation not exercised", got)
	}
	for lsn, id := range acked {
		rec, err := m2.Read(lsn)
		if err != nil {
			t.Fatalf("read %v after reopen: %v", lsn, err)
		}
		if rec.TxnID != id {
			t.Fatalf("lsn %v: txn %d, want %d", lsn, rec.TxnID, id)
		}
	}
}

// TestTailIOErrorSurfaces injects a write failure under racing committers:
// every in-flight committer must surface the error (not hang), and the
// manager must stay sticky-poisoned afterwards.
func TestTailIOErrorSurfaces(t *testing.T) {
	m := openTailStore(t, Config{})
	const writers = 8
	errs := make(chan error, writers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; ; i++ {
				rec := &Record{Type: TypeCommit, TxnID: uint64(w), PageID: NoPage,
					NewData: make([]byte, 512)}
				lsn, err := m.Append(rec)
				if err == nil {
					err = m.WaitDurable(lsn)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	close(start)
	time.Sleep(5 * time.Millisecond) // let traffic build
	m.failWrites.Store(true)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight committers hung after injected I/O error")
	}
	for i := 0; i < writers; i++ {
		if err := <-errs; err == nil {
			t.Fatal("writer exited without an error")
		}
	}
	// Sticky poison: both entry points keep failing.
	if _, err := m.Append(&Record{Type: TypeInsert, TxnID: 1, PageID: 1}); err == nil {
		t.Fatal("Append succeeded on a poisoned manager")
	}
	// The failed flush put its bytes back in the tail, so the log end is
	// reserved-but-unflushed; forcing it must surface the sticky error
	// (already-durable LSNs still acknowledge, as they should).
	if end := m.NextLSN() - 1; end <= m.FlushedLSN() {
		t.Fatalf("no unflushed bytes after failed flush: end %v, flushed %v", end, m.FlushedLSN())
	} else if err := m.WaitDurable(end); err == nil {
		t.Fatal("WaitDurable succeeded on a poisoned manager")
	}
}
