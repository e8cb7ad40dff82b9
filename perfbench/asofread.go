package main

import (
	"time"

	"repro/internal/asof"
	"repro/internal/engine"
)

// asofStats accumulates the snapshot-side counts of a run.
type asofStats struct {
	snapshots                     int64
	pages, records, images, sides int64 // Snapshot.Stats and SidePages, summed
	scans, scanPages              int64 // range reads and the pages they prepared
	queries                       int64 // as-of reads: lookups and range reads
	createMs                      []float64
}

// mount creates a snapshot of db as of t and waits for its background undo.
// In traced windows it then resolves the same instant again, as a probe
// that leaves the mount itself as untraced windows make it, to measure
// the split-resolution share of CreateSnapshot.
func mount(db *engine.DB, t time.Time, tr *lane, st *asofStats) (*asof.Snapshot, error) {
	sp := tr.begin(spCreate)
	t0 := time.Now()
	s, err := asof.CreateSnapshot(db, t, nil)
	d := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	st.createMs = append(st.createMs, float64(d)/1e6)
	sp = tr.begin(spWaitUndo)
	err = s.WaitUndo()
	tr.end(sp)
	if err == nil && tr.on {
		sp = tr.begin(spResolve)
		_, err = asof.ResolveTime(db, t)
		tr.end(sp)
	}
	if err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

func (st *asofStats) merge(o asofStats) {
	st.snapshots += o.snapshots
	st.pages += o.pages
	st.records += o.records
	st.images += o.images
	st.sides += o.sides
	st.scans += o.scans
	st.scanPages += o.scanPages
	st.queries += o.queries
	st.createMs = append(st.createMs, o.createMs...)
}

// unmount folds the snapshot's undo counts into st and drops it.
func (st *asofStats) unmount(s *asof.Snapshot, tr *lane) error {
	ss := s.Stats()
	st.snapshots++
	st.pages += ss.PagesPrepared.Load()
	st.records += ss.RecordsUndone.Load()
	st.images += ss.ImageRestores.Load()
	st.sides += int64(s.SidePages())
	sp := tr.begin(spClose)
	defer tr.end(sp)
	return s.Close()
}

// set writes the as-of per-layer metrics and figures; undoReads is the
// wal_undo_reads_total delta over the same interval.
func (st *asofStats) set(r *workloadResult, undoReads float64) {
	r.layer["wal.undo_reads_per_query"] = ratio(undoReads, float64(st.queries))
	r.layer["asof.records_undone_per_page"] = ratio(float64(st.records), float64(st.pages))
	r.layer["asof.pages_prepared_per_scan"] = ratio(float64(st.scanPages), float64(st.scans))
	r.layer["asof.image_restores_per_page"] = ratio(float64(st.images), float64(st.pages))
	r.layer["asof.side_pages_per_snapshot"] = ratio(float64(st.sides), float64(st.snapshots))
	r.figures["snapshot_create_ms"] = median(st.createMs)
	r.figures["snapshots"] = float64(st.snapshots)
}
