package asof

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/row"
	"repro/internal/storage/page"
	"repro/internal/wal"
)

// bigBody pads rows so the history spans a meaningful number of pages.
var bigBody = string(bytes.Repeat([]byte("x"), 160))

// historyMark is one as-of point of buildVariedHistory: its LSN and the
// live bytes of every readable page at that instant.
type historyMark struct {
	lsn   wal.LSN
	pages map[uint32][]byte
}

// livePages copies every page of the data file the buffer pool can fetch.
func livePages(t *testing.T, db *engine.DB) map[uint32][]byte {
	t.Helper()
	pages := make(map[uint32][]byte)
	for id := uint32(1); id < db.Data().PageCount(); id++ {
		h, err := db.Pool().Fetch(page.ID(id), false)
		if err != nil {
			continue // never-allocated gap page
		}
		pages[id] = append([]byte(nil), h.Page().Bytes()...)
		h.Release()
	}
	return pages
}

// buildVariedHistory generates a history exercising every chain-record
// shape the reader must rewind across: inserts, updates, deletes, CLRs
// (rolled-back transaction), preformat records (pages freed by a drop and
// re-allocated), periodic full page images, and allocation-bitmap changes.
// It returns the marks captured after each phase.
func buildVariedHistory(t *testing.T, db *engine.DB, clock *vclock) []historyMark {
	t.Helper()
	mark := func(lsns []historyMark) []historyMark {
		lsn := db.Log().NextLSN() - 1
		// Flush first: the data file then spans every allocated page.
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		return append(lsns, historyMark{lsn: lsn, pages: livePages(t, db)})
	}
	var lsns []historyMark

	pad := func(s string) string { return s + bigBody }

	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })
	exec(t, db, func(tx *engine.Txn) error {
		for i := 0; i < 300; i++ {
			if err := tx.Insert("t", testRow(i, pad("v1"), i)); err != nil {
				return err
			}
		}
		return nil
	})
	lsns = mark(lsns)
	clock.Advance(time.Minute)

	// Updates and deletes.
	exec(t, db, func(tx *engine.Txn) error {
		for i := 0; i < 120; i += 2 {
			if err := tx.Update("t", testRow(i, pad("v2"), i*10)); err != nil {
				return err
			}
		}
		for i := 150; i < 170; i++ {
			if err := tx.Delete("t", row.Row{row.Int64(int64(i))}); err != nil {
				return err
			}
		}
		return nil
	})
	lsns = mark(lsns)
	clock.Advance(time.Minute)

	// A rolled-back transaction: CLRs land on the page chains.
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if err := tx.Update("t", testRow(i, "rolled-back", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	lsns = mark(lsns)
	clock.Advance(time.Minute)

	// Drop and recreate: freed pages re-allocated under a new table write
	// preformat records joining the new chains to the old ones.
	exec(t, db, func(tx *engine.Txn) error { return tx.DropTable("t") })
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("u")) })
	exec(t, db, func(tx *engine.Txn) error {
		for i := 0; i < 250; i++ {
			if err := tx.Insert("u", testRow(i, pad("after-realloc"), i)); err != nil {
				return err
			}
		}
		return nil
	})
	lsns = mark(lsns)
	clock.Advance(time.Minute)

	exec(t, db, func(tx *engine.Txn) error {
		for i := 0; i < 150; i += 3 {
			if err := tx.Update("u", testRow(i, "final", i+1)); err != nil {
				return err
			}
		}
		return nil
	})
	lsns = mark(lsns)
	return lsns
}

// TestPrepareReproducesCapturedPages is the as-of oracle: rewinding the
// final copy of every page to each mark of a varied history must reproduce
// the pageLSN, type and slot contents the page had live at that mark.
func TestPrepareReproducesCapturedPages(t *testing.T) {
	clock := newVClock()
	// Image logging on, so image chains participate.
	db := openDB(t, clock, engine.Options{PageImageEvery: 7})
	marks := buildVariedHistory(t, db, clock)
	final := livePages(t, db)
	if len(final) < 10 {
		t.Fatalf("history too small: %d pages", len(final))
	}
	compared := 0
	for id, orig := range final {
		for _, m := range marks {
			want, ok := m.pages[id]
			if !ok {
				continue // page not yet readable at this mark
			}
			got := page.FromBytes(append([]byte(nil), orig...))
			if err := PreparePageAsOf(got, m.lsn, db.Log(), nil); err != nil {
				t.Fatalf("page %d asOf %v: %v", id, m.lsn, err)
			}
			samePage(t, fmt.Sprintf("page %d asOf %v", id, m.lsn), got, page.FromBytes(want))
			compared++
		}
	}
	t.Logf("compared %d page/asOf rewinds across %d pages", compared, len(final))
}

// samePage fails unless got and want agree on pageLSN, type and every slot.
func samePage(t *testing.T, what string, got, want *page.Page) {
	t.Helper()
	if got.PageLSN() != want.PageLSN() || got.Type() != want.Type() {
		t.Fatalf("%s: pageLSN %d type %v, want %d %v", what, got.PageLSN(), got.Type(), want.PageLSN(), want.Type())
	}
	if got.NumSlots() != want.NumSlots() {
		t.Fatalf("%s: %d slots, want %d", what, got.NumSlots(), want.NumSlots())
	}
	for i := 0; i < want.NumSlots(); i++ {
		if !bytes.Equal(got.MustGet(i), want.MustGet(i)) {
			t.Fatalf("%s: slot %d diverges", what, i)
		}
	}
}

// TestPrepareZeroAllocPerUndoneRecord asserts the acceptance criterion:
// steady-state PreparePageAsOf chain walks allocate nothing per undone
// record (the pooled reader, pinned blocks and scratch record make the
// whole walk allocation-free once warm).
func TestPrepareZeroAllocPerUndoneRecord(t *testing.T) {
	clock := newVClock()
	db := openDB(t, clock, engine.Options{})
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })
	exec(t, db, func(tx *engine.Txn) error { return tx.Insert("t", testRow(1, "v0", 0)) })
	asOf := db.Log().NextLSN() - 1

	// 300 updates of the same row: one long single-page chain.
	for i := 0; i < 300; i++ {
		exec(t, db, func(tx *engine.Txn) error {
			return tx.Update("t", testRow(1, fmt.Sprintf("v%d", i+1), i))
		})
	}
	var root page.ID
	exec(t, db, func(tx *engine.Txn) error {
		tbl, err := tx.Table("t")
		if err != nil {
			return err
		}
		root = tbl.Root
		return nil
	})
	h, err := db.Pool().Fetch(root, false)
	if err != nil {
		t.Fatal(err)
	}
	orig := append([]byte(nil), h.Page().Bytes()...)
	h.Release()

	scratch := page.FromBytes(make([]byte, page.Size))
	var stats Stats
	prepare := func() {
		scratch.CopyFrom(orig)
		if err := PreparePageAsOf(scratch, asOf, db.Log(), &stats); err != nil {
			t.Fatal(err)
		}
	}
	prepare() // warm pool, cache and reader
	before := stats.RecordsUndone.Load()
	prepare()
	perCall := stats.RecordsUndone.Load() - before
	if perCall < 300 {
		t.Fatalf("chain shorter than expected: %d records", perCall)
	}
	allocs := testing.AllocsPerRun(20, prepare)
	if perRecord := allocs / float64(perCall); perRecord > 0.01 {
		t.Fatalf("PreparePageAsOf allocates %.3f allocs per undone record (%.1f per call, %d records)",
			perRecord, allocs, perCall)
	}
}

// TestResolveTimeSparseIndexWindow verifies that once the time→LSN index
// covers the target, ResolveTime starts its commit scan inside one sample
// window of the split instead of at the preceding checkpoint, and resolves
// the same SplitLSN a full scan would.
func TestResolveTimeSparseIndexWindow(t *testing.T) {
	clock := newVClock()
	db := openDB(t, clock, engine.Options{})
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })
	// One early checkpoint, then a long checkpoint-free stretch of commits:
	// without the sparse index, resolution scans the whole stretch.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	type commitMark struct {
		at  time.Time
		lsn wal.LSN
	}
	var marks []commitMark
	pad := string(bytes.Repeat([]byte("p"), 800))
	for i := 0; i < 500; i++ {
		exec(t, db, func(tx *engine.Txn) error {
			return tx.Insert("t", testRow(i, pad, i))
		})
		marks = append(marks, commitMark{at: clock.Now(), lsn: db.Log().NextLSN() - 1})
		clock.Advance(time.Second)
	}
	if db.Log().TimeIndexLen() < 3 {
		t.Fatalf("sparse index too small: %d samples over %d bytes of log",
			db.Log().TimeIndexLen(), db.Log().Size())
	}

	// marks[i].lsn is the end of commit i's record, so commit i's own LSN
	// lies in (marks[i-1].lsn, marks[i].lsn].
	target := marks[350]
	sp, err := ResolveTime(db, target.at)
	if err != nil {
		t.Fatal(err)
	}
	if sp.SplitLSN <= marks[349].lsn || sp.SplitLSN > target.lsn {
		t.Fatalf("split %v outside commit-350 record (%v, %v]", sp.SplitLSN, marks[349].lsn, target.lsn)
	}
	// The floor sample must bound the scan window to one sample interval.
	s, ok := db.Log().TimeFloor(target.at.UnixNano())
	if !ok {
		t.Fatal("index does not cover target")
	}
	if s.LSN > sp.SplitLSN {
		t.Fatalf("floor %v beyond split %v", s.LSN, sp.SplitLSN)
	}
	if window := uint64(sp.SplitLSN - s.LSN); window > 2*64<<10 {
		t.Fatalf("scan window %d bytes, want within ~one 64KiB sample interval", window)
	}

	// The index survives restart via checkpoint piggybacking.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	dir := db.Dir()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := engine.Open(dir, engine.Options{Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Log().TimeIndexLen() == 0 {
		t.Fatal("time index not reseeded from checkpoint chain")
	}
	sp2, err := ResolveTime(db2, target.at)
	if err != nil {
		t.Fatal(err)
	}
	if sp2.SplitLSN != sp.SplitLSN {
		t.Fatalf("post-restart split %v, want %v", sp2.SplitLSN, sp.SplitLSN)
	}
}

// TestSnapshotQueriesDuringParallelUndo is the race hammer: several
// in-flight transactions at the split are undone by parallel workers while
// concurrent readers hammer point lookups across all affected ranges. Every
// read must see the committed pre-transaction value, whatever the
// interleaving. Run under -race in CI.
func TestSnapshotQueriesDuringParallelUndo(t *testing.T) {
	clock := newVClock()
	db := openDB(t, clock, engine.Options{})
	exec(t, db, func(tx *engine.Txn) error { return tx.CreateTable(testSchema("t")) })
	const rows = 2400
	for lo := 0; lo < rows; lo += 600 {
		exec(t, db, func(tx *engine.Txn) error {
			for i := lo; i < lo+600; i++ {
				if err := tx.Insert("t", testRow(i, "clean", i)); err != nil {
					return err
				}
			}
			return nil
		})
	}

	// Six in-flight transactions over disjoint ranges: updates, deletes and
	// fresh inserts, all uncommitted at the split.
	var open []*engine.Txn
	for w := 0; w < 6; w++ {
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		base := w * 400
		for i := base; i < base+30; i++ {
			if err := tx.Update("t", testRow(i, "dirty", -1)); err != nil {
				t.Fatal(err)
			}
		}
		for i := base + 30; i < base+36; i++ {
			if err := tx.Delete("t", row.Row{row.Int64(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4; i++ {
			if err := tx.Insert("t", testRow(rows+w*10+i, "phantom", i)); err != nil {
				t.Fatal(err)
			}
		}
		open = append(open, tx)
	}
	defer func() {
		for _, tx := range open {
			tx.Rollback()
		}
	}()

	s, err := CreateSnapshotAtLSN(db, db.Log().NextLSN()-1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := len(s.Point().ATT); got != len(open) {
		t.Fatalf("ATT has %d transactions, want %d", got, len(open))
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 120; round++ {
				id := int64((g*37 + round*13) % rows)
				r, ok, err := s.Get("t", row.Row{row.Int64(id)})
				if err != nil {
					t.Errorf("get %d: %v", id, err)
					return
				}
				if !ok {
					t.Errorf("row %d missing from snapshot", id)
					return
				}
				if r[1].Str != "clean" {
					t.Errorf("row %d: saw %q", id, r[1].Str)
					return
				}
			}
			// Phantom rows inserted by in-flight transactions must not
			// exist as of the split.
			id := int64(rows + (g%6)*10)
			if _, ok, err := s.Get("t", row.Row{row.Int64(id)}); err != nil || ok {
				t.Errorf("phantom row %d: ok=%v err=%v", id, ok, err)
			}
		}(g)
	}
	wg.Wait()
	if err := s.WaitUndo(); err != nil {
		t.Fatal(err)
	}
	n, err := s.CountRows("t", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != rows {
		t.Fatalf("snapshot has %d rows, want %d", n, rows)
	}
}
