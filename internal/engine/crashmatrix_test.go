package engine

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/row"
	"repro/internal/wal"
)

// tableDigest scans table t into an id->body|qty map.
func tableDigest(t *testing.T, db *DB) map[int64]string {
	t.Helper()
	got := make(map[int64]string)
	mustExec(t, db, func(tx *Txn) error {
		return tx.Scan("t", nil, nil, func(r row.Row) bool {
			got[r[0].Int] = fmt.Sprintf("%s|%d", r[1].Str, r[2].Int)
			return true
		})
	})
	return got
}

// tearLogTail chops n bytes off the end of the newest log segment.
func tearLogTail(t *testing.T, dir string, n int64) {
	t.Helper()
	segs, err := wal.ListSegments(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatal("log has no segments")
	}
	path := segs[len(segs)-1].Path
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() <= n {
		t.Fatalf("tail segment only %d bytes", st.Size())
	}
	if err := os.Truncate(path, st.Size()-n); err != nil {
		t.Fatal(err)
	}
}

// TestTornTailKeepsCommitPrefix: tearing the log tail (simulated lost
// device writes) loses the newest commits only — the surviving rows of a
// serial workload form a prefix — and the database stays consistent.
func TestTornTailKeepsCommitPrefix(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("t")) })
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// One single-insert transaction per round, each touching its own key.
	const txns = 40
	for i := 0; i < txns; i++ {
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Insert("t", testRow(i, fmt.Sprintf("v%d", i), i)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	db.Crash()

	tearLogTail(t, dir, 9)

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery after tear: %v", err)
	}
	defer db2.Close()
	if _, err := db2.CheckConsistency(); err != nil {
		t.Fatalf("consistency after tear: %v", err)
	}
	got := tableDigest(t, db2)
	// The tear removed at least the final commit.
	if len(got) == txns {
		t.Fatalf("tear removed nothing (all %d rows present)", txns)
	}
	// Once a commit is lost, every later commit is gone too.
	lost := false
	for i := 0; i < txns; i++ {
		_, present := got[int64(i)]
		if present && lost {
			t.Fatalf("row %d survived after an earlier commit was lost", i)
		}
		if !present {
			lost = true
		}
	}
	// The database accepts and recovers new commits afterwards.
	mustExec(t, db2, func(tx *Txn) error { return tx.Insert("t", testRow(7000, "after", 1)) })
	if _, err := db2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashMidRotationLosesActiveSegment: crash with a freshly rotated
// tail segment (small segments force rotations), then lose the active
// segment file outright and tear into the sealed one behind it — recovery
// must fall back to the sealed prefix and stay consistent.
func TestCrashMidRotationLosesActiveSegment(t *testing.T) {
	dir := t.TempDir()
	opts := Options{LogSegmentBytes: 4 << 10}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("t")) })
	for b := 0; b < 30; b++ {
		mustExec(t, db, func(tx *Txn) error {
			for i := 0; i < 10; i++ {
				if err := tx.Insert("t", testRow(b*10+i, fmt.Sprintf("r%d", b*10+i), i)); err != nil {
					return err
				}
			}
			return nil
		})
	}
	db.Crash()

	// Drop the active segment (as if the rotation's first writes never
	// reached the device) and tear into the sealed one behind it.
	segs, err := wal.ListSegments(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("log produced only %d segments; shrink the segment size", len(segs))
	}
	if err := os.Remove(segs[len(segs)-1].Path); err != nil {
		t.Fatal(err)
	}
	sealed := segs[len(segs)-2]
	st, err := os.Stat(sealed.Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(sealed.Path, st.Size()-5); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("recovery after mid-rotation loss: %v", err)
	}
	defer db2.Close()
	if _, err := db2.CheckConsistency(); err != nil {
		t.Fatalf("consistency after mid-rotation loss: %v", err)
	}
	mustExec(t, db2, func(tx *Txn) error { return tx.Insert("t", testRow(90000, "after", 1)) })
	if err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashMatrixAcrossSegments is TestCrashRecoveryMatrix over small log
// segments with random checkpoints: randomized committed/rolled-back/
// hanging transactions, crashed and recovered repeatedly, with the
// committed-row model checked after every recovery.
func TestCrashMatrixAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(0xA50FDB))
	model := make(map[int64]string)
	opts := Options{PageImageEvery: 40, LogSegmentBytes: 16 << 10}

	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("t")) })

	for round := 0; round < 10; round++ {
		for b := 0; b < 4; b++ {
			tx, err := db.Begin()
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			staged := make(map[int64]*string)
			visible := func(id int64) bool {
				if v, ok := staged[id]; ok {
					return v != nil
				}
				_, ok := model[id]
				return ok
			}
			for op := 0; op < 10; op++ {
				id := int64(rng.Intn(150))
				switch {
				case !visible(id):
					v := fmt.Sprintf("r%d-%d-%d", round, b, op)
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
					v := fmt.Sprintf("u%d-%d-%d", round, b, op)
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
				continue
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
		if rng.Intn(2) == 0 {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if rng.Intn(2) == 0 {
			hang, _ := db.Begin()
			_ = hang.Insert("t", testRow(500+round, "inflight", round))
		}

		db.Crash()
		db, err = Open(dir, opts)
		if err != nil {
			t.Fatalf("round %d: recovery: %v", round, err)
		}
		if _, err := db.CheckConsistency(); err != nil {
			t.Fatalf("round %d: post-recovery consistency: %v", round, err)
		}
		got := tableDigest(t, db)
		if len(got) != len(model) {
			t.Fatalf("round %d: %d rows after recovery, want %d", round, len(got), len(model))
		}
		for id, v := range model {
			gv, ok := got[id]
			if !ok {
				t.Fatalf("round %d: row %d missing", round, id)
			}
			// tableDigest renders "body|qty"; the model tracks the body.
			if want := v + "|"; len(gv) < len(want) || gv[:len(want)] != want {
				t.Fatalf("round %d: row %d = %q, want body %q", round, id, gv, v)
			}
		}
	}
	db.Close()
}

// TestCrashAfterCommitHammer races committers through the commit path
// under the configured sync policy, then crashes and proves every
// acknowledged commit survives recovery.
func TestCrashAfterCommitHammer(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SyncPolicy: testSyncPolicy(t)}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("t")) })

	const writers = 8
	const perWriter = 100
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := w*perWriter + i
				tx, err := db.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				if err := tx.Insert("t", testRow(id, fmt.Sprintf("w%d-%d", w, i), id)); err != nil {
					t.Error(err)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	db.Crash()

	db, err = Open(dir, opts)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer db.Close()
	if _, err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	got := tableDigest(t, db)
	if len(got) != writers*perWriter {
		t.Fatalf("%d rows after crash, want %d (every commit was acknowledged durable)", len(got), writers*perWriter)
	}
}
