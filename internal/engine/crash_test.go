package engine

import (
	"bytes"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/row"
	"repro/internal/wal"
)

// TestCrashRecoveryMatrix repeatedly crashes the same database at varied
// points in a randomized workload, recovering and checking full physical
// consistency each time. The committed-row model is tracked across crashes
// and compared after every recovery.
func TestCrashRecoveryMatrix(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(2012))
	model := make(map[int64]string) // committed rows only

	db, err := Open(dir, Options{PageImageEvery: 40})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("t")) })

	for round := 0; round < 12; round++ {
		// A few committed transactions.
		for b := 0; b < 3; b++ {
			tx, err := db.Begin()
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			staged := make(map[int64]*string) // nil = staged delete
			visible := func(id int64) bool {
				if v, ok := staged[id]; ok {
					return v != nil
				}
				_, ok := model[id]
				return ok
			}
			for op := 0; op < 10; op++ {
				id := int64(rng.Intn(200))
				switch {
				case !visible(id):
					v := fmt.Sprintf("r%d-b%d-%d", round, b, op)
					if err := tx.Insert("t", testRow(int(id), v, op)); err != nil {
						t.Fatal(err)
					}
					staged[id] = &v
				case rng.Intn(3) == 0:
					if err := tx.Delete("t", row.Row{row.Int64(id)}); err != nil {
						t.Fatal(err)
					}
					staged[id] = nil
				default:
					v := fmt.Sprintf("u%d-b%d-%d", round, b, op)
					if err := tx.Update("t", testRow(int(id), v, op)); err != nil {
						t.Fatal(err)
					}
					staged[id] = &v
				}
			}
			if rng.Intn(4) == 0 {
				if err := tx.Rollback(); err != nil {
					t.Fatal(err)
				}
				continue // staged changes discarded
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			for id, v := range staged {
				if v == nil {
					delete(model, id)
				} else {
					model[id] = *v
				}
			}
		}
		// Sometimes checkpoint, sometimes leave everything dirty.
		if rng.Intn(2) == 0 {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		// Leave an in-flight transaction hanging at the crash.
		if rng.Intn(2) == 0 {
			hang, _ := db.Begin()
			_ = hang.Insert("t", testRow(500+round, "inflight", round))
		}

		db.Crash()
		db, err = Open(dir, Options{PageImageEvery: 40})
		if err != nil {
			t.Fatalf("round %d: recovery: %v", round, err)
		}
		if _, err := db.CheckConsistency(); err != nil {
			t.Fatalf("round %d: post-recovery consistency: %v", round, err)
		}
		// Compare against the committed model.
		got := make(map[int64]string)
		mustExec(t, db, func(tx *Txn) error {
			return tx.Scan("t", nil, nil, func(r row.Row) bool {
				got[r[0].Int] = r[1].Str
				return true
			})
		})
		if len(got) != len(model) {
			t.Fatalf("round %d: %d rows after recovery, want %d", round, len(got), len(model))
		}
		for id, v := range model {
			if got[id] != v {
				t.Fatalf("round %d: row %d = %q, want %q", round, id, got[id], v)
			}
		}
	}
	db.Close()
}

// TestCrashDuringHeavySplits crashes while a large transaction that forced
// many page splits is still in flight; recovery must undo the rows but
// keep the trees (nested-top-action splits) intact.
func TestCrashDuringHeavySplits(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("t")) })
	mustExec(t, db, func(tx *Txn) error {
		for i := 0; i < 100; i++ {
			if err := tx.Insert("t", testRow(i, "committed", i)); err != nil {
				return err
			}
		}
		return nil
	})
	big, _ := db.Begin()
	long := make([]byte, 400)
	for i := range long {
		long[i] = 'S'
	}
	for i := 1000; i < 1800; i++ {
		if err := big.Insert("t", testRow(i, string(long), i)); err != nil {
			t.Fatal(err)
		}
	}
	db.Crash()

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := db2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db2, func(tx *Txn) error {
		n, err := tx.CountRows("t", nil, nil)
		if err != nil {
			return err
		}
		if n != 100 {
			return fmt.Errorf("rows = %d, want 100", n)
		}
		return nil
	})
	// The table is fully usable after the rolled-back splits.
	mustExec(t, db2, func(tx *Txn) error {
		for i := 1000; i < 1200; i++ {
			if err := tx.Insert("t", testRow(i, "fresh", i)); err != nil {
				return err
			}
		}
		return nil
	})
	if _, err := db2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestRepeatedCrashesWithoutProgress recovers the same crash image several
// times; recovery must be idempotent even when each recovery itself crashes
// before checkpointing further work.
func TestRepeatedCrashesWithoutProgress(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("t")) })
	mustExec(t, db, func(tx *Txn) error { return tx.Insert("t", testRow(1, "anchor", 1)) })
	inflight, _ := db.Begin()
	_ = inflight.Update("t", testRow(1, "phantom", 2))
	db.Crash()

	for i := 0; i < 4; i++ {
		db, err = Open(dir, Options{})
		if err != nil {
			t.Fatalf("recovery %d: %v", i, err)
		}
		mustExec(t, db, func(tx *Txn) error {
			r, ok, err := tx.Get("t", row.Row{row.Int64(1)})
			if err != nil || !ok {
				return fmt.Errorf("anchor lost: ok=%v err=%v", ok, err)
			}
			if r[1].Str != "anchor" {
				return fmt.Errorf("anchor = %q", r[1].Str)
			}
			return nil
		})
		if _, err := db.CheckConsistency(); err != nil {
			t.Fatalf("recovery %d: %v", i, err)
		}
		db.Crash()
	}
}

// copyTree copies the regular files under src to dst, keeping the layout.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryUndoOrderDeterministic: recovery undoes the transactions in
// flight at a crash in transaction-id order, so two recoveries of copies of
// one crashed directory, on the same virtual clock, append byte-identical
// log.
func TestRecoveryUndoOrderDeterministic(t *testing.T) {
	const open = 5
	dir := filepath.Join(t.TempDir(), "crashed")
	start := time.Date(2012, 8, 27, 12, 0, 0, 0, time.UTC)
	db, err := Open(dir, Options{Clock: clock.NewMock(start)})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("t")) })
	for i := 0; i < open; i++ {
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			if err := tx.Insert("t", testRow(i*10+j, fmt.Sprintf("open txn %d row %d", i, j), j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A commit forces the open transactions' records to disk with it.
	mustExec(t, db, func(tx *Txn) error { return tx.Insert("t", testRow(1000, "committed", 0)) })
	crashEnd := db.Log().NextLSN()
	db.Crash()

	var appended [2][]byte
	for i := range appended {
		cp := filepath.Join(t.TempDir(), "copy")
		copyTree(t, dir, cp)
		db, err := Open(cp, Options{Clock: clock.NewMock(start.Add(time.Minute))})
		if err != nil {
			t.Fatal(err)
		}
		aborts := 0
		if err := db.Log().Scan(crashEnd, func(r *wal.Record) (bool, error) {
			if r.Type == wal.TypeAbort {
				aborts++
			}
			return true, nil
		}); err != nil {
			t.Fatal(err)
		}
		if aborts != open {
			t.Fatalf("recovery %d logged %d aborts, want %d", i, aborts, open)
		}
		b := make([]byte, db.Log().NextLSN()-crashEnd)
		if n, err := db.Log().ReadDurable(b, int64(crashEnd-1)); err != nil || n != len(b) {
			t.Fatalf("read %d of %d recovery log bytes: %v", n, len(b), err)
		}
		appended[i] = b
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(appended[0], appended[1]) {
		t.Fatalf("recoveries appended different log: %d vs %d bytes, first difference at byte %d",
			len(appended[0]), len(appended[1]), firstDiff(appended[0], appended[1]))
	}
}
