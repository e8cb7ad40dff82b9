package engine

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/wal"
)

// goldenWALDir holds the log files goldenWorkload produced when the golden
// was captured. Any change to record encoding, framing, segment headers or
// the order in which the engine logs shows up as a byte difference here.
const goldenWALDir = "testdata/golden_wal"

// goldenWorkload runs a fixed single-goroutine workload on a virtual clock:
// inserts, updates, an aborted transaction, a checkpoint, enough log to
// rotate segments, and page images. The log it leaves in dir/wal is a pure
// function of the engine's logging code.
func goldenWorkload(t *testing.T, dir string) {
	t.Helper()
	mock := clock.NewMock(time.Date(2012, 8, 27, 12, 0, 0, 0, time.UTC))
	db, err := Open(dir, Options{Clock: mock, PageImageEvery: 64, LogSegmentBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, func(tx *Txn) error { return tx.CreateTable(testSchema("t")) })
	batch := func(b int) {
		mock.Advance(time.Second)
		mustExec(t, db, func(tx *Txn) error {
			for i := 0; i < 8; i++ {
				id := b*8 + i
				if err := tx.Insert("t", testRow(id, fmt.Sprintf("row %04d of the golden log", id), id)); err != nil {
					return err
				}
			}
			if b > 0 {
				return tx.Update("t", testRow((b-1)*8, fmt.Sprintf("updated in batch %d", b), b))
			}
			return nil
		})
	}
	for b := 0; b < 8; b++ {
		batch(b)
	}
	mock.Advance(time.Second)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := tx.Insert("t", testRow(10000+i, "aborted", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Update("t", testRow(8, "aborted update", 0)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	mock.Advance(time.Second)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for b := 8; b < 16; b++ {
		batch(b)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenLogBytes replays goldenWorkload and compares every file it
// leaves under wal/ with the committed golden copy, byte for byte.
func TestGoldenLogBytes(t *testing.T) {
	dir := t.TempDir()
	goldenWorkload(t, dir)
	got := readFiles(t, filepath.Join(dir, "wal"))
	want := readFiles(t, goldenWALDir)
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: missing from the replayed log", name)
			continue
		}
		if !bytes.Equal(g, want[name]) {
			t.Errorf("%s: %d bytes, golden has %d; first difference at byte %d",
				name, len(g), len(want[name]), firstDiff(g, want[name]))
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: written by the workload but not in the golden", name)
		}
	}

	// The golden only pins what the workload exercises: check it covers
	// every kind of record and event it is meant to.
	segs, err := wal.ListSegments(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Errorf("workload wrote %d segments, want a rotation", len(segs))
	}
	m, err := wal.Open(filepath.Join(dir, "wal"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	seen := map[wal.Type]int{}
	if err := m.Scan(1, func(r *wal.Record) (bool, error) {
		seen[r.Type]++
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, typ := range []wal.Type{wal.TypeInsert, wal.TypeUpdate, wal.TypeCommit, wal.TypeAbort,
		wal.TypeCLR, wal.TypeImage, wal.TypeCheckpointEnd} {
		if seen[typ] == 0 {
			t.Errorf("workload logged no %v record", typ)
		}
	}
}

// readFiles returns every file in dir by name.
func readFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(ents))
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}
