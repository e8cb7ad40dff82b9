package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/row"
	"repro/internal/tpcc"
)

const (
	// recoveryRedoBytes is the log built up past the last checkpoint before
	// each crash: recovery's redo scans this much.
	recoveryRedoBytes = 24 << 20
	recoveryFrames    = 4096
	recoveryCycles    = 2  // crash cycles per database; the second runs on a reopened one
	recoveryOpen      = 3  // transactions left open at each crash
	recoveryOpenRows  = 20 // history rows each open transaction inserts
	recoveryCopies    = 3  // extra recoveries of each crash, on copies of its files
)

var recoveryOptions = engine.Options{BufferFrames: recoveryFrames}

// runRecovery: one client runs the TPC-C mix until a fixed log volume has
// built up since the last checkpoint, leaves a few transactions open,
// crashes the database and times engine.Open, which runs analysis, redo
// and undo over the log. Each round loads a fresh database and makes
// recoveryCycles crashes; rounds repeat until the measured time is used.
func runRecovery(rc runConfig) (*workloadResult, error) {
	r := newResult()
	r.trace = newTracer()
	cfg := tpccScale(rc.seed)
	var st asofStats
	var deltas layerDeltas
	var redoBytes, openSeconds, pagesRead []float64
	var measured time.Duration
	for round := 0; round < rc.rounds || measured.Seconds() < rc.seconds; round++ {
		traced := rc.trace && round%2 == 1
		t0 := time.Now()
		dir := filepath.Join(rc.dir, fmt.Sprint("r", round))
		db, err := engine.Open(dir, recoveryOptions)
		if err == nil {
			err = tpcc.Load(db, cfg)
		}
		if err != nil {
			return r, err
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
		tr := r.trace.lane(fmt.Sprint("client", round), true)
		tr.on = traced
		var hid atomic.Int64
		m := newMix(db, cfg, rc.seed, &hid, nil, 0, tr)
		var payments int64 // committed history rows
		m0 := time.Now()
		var aside time.Duration // benchmark work inside the measured time, not in any layer
		for cycle := 0; cycle < recoveryCycles; cycle++ {
			last := cycle == recoveryCycles-1
			c, err := recoveryCycle(dir, db, m, &hid, &payments, last, tr, r, &st, &deltas)
			if err != nil {
				return r, err
			}
			db = c.db
			aside += c.aside
			r.cpu += c.cpu
			r.cpuOps += float64(c.txns) * float64(len(c.opens))
			redoBytes = append(redoBytes, float64(c.redo))
			t := b2i(traced)
			for i, d := range c.opens {
				openSeconds = append(openSeconds, d.Seconds())
				pagesRead = append(pagesRead, float64(c.pagesRead[i]))
				r.ops[t][0] += float64(c.txns)
				r.time[t][0] += d
				if !traced {
					r.lat[0][0] = append(r.lat[0][0], us(d))
				}
			}
		}
		d := time.Since(m0)
		measured += d
		tr.account(d - aside)
		if err := db.Close(); err != nil {
			return r, err
		}
		if round == 0 {
			r.config["data_pages"] = db.Data().PageCount()
			r.config["buffer_frames"] = recoveryFrames
			r.config["redo_bytes_per_crash"] = recoveryRedoBytes
		}
	}
	deltas.set(r, true)
	st.set(r, deltas.undoReads)
	var redo, open float64
	for _, b := range redoBytes {
		redo += b
	}
	for _, s := range openSeconds {
		open += s
	}
	redoMiB := redo / float64(len(redoBytes)) / (1 << 20)
	r.layer["recovery.redo_mib"] = redoMiB
	r.layer["recovery.mib_per_s"] = redoMiB / (open / float64(len(openSeconds)))
	r.layer["recovery.pages_read"] = median(pagesRead)
	r.figures["recovery_s"] = median(openSeconds)
	r.figures["recoveries"] = float64(len(openSeconds))
	return r, nil
}

type cycleResult struct {
	db        *engine.DB // the reopened database
	redo      int64      // log bytes past the last checkpoint at the crash
	txns      int64      // transactions committed in that log
	opens     []time.Duration
	pagesRead []int64       // buffer pool misses during each Open
	aside     time.Duration // benchmark work between the Opens: copying files, collecting garbage
	cpu       time.Duration // process CPU time of the Opens
}

// recoveryCycle runs one crash cycle and checks the recovered database:
// every acknowledged transaction is present and no row of a transaction
// left open at the crash is visible, live and, when asOf is set, as of the
// crash.
func recoveryCycle(dir string, db *engine.DB, m *mix, hid *atomic.Int64, payments *int64, asOf bool, tr *lane,
	r *workloadResult, st *asofStats, deltas *layerDeltas) (cycleResult, error) {
	var c cycleResult
	before := readCounters(db)
	commits0, deadlocks0 := m.commits, m.deadlocks
	var acked []int64 // history ids of this cycle's committed Payments
	step := func() (bool, error) {
		h0 := hid.Load()
		committed, err := m.one()
		r.attempted++
		if committed && hid.Load() > h0 {
			acked = append(acked, hid.Load())
			*payments++
		}
		return committed, err
	}
	for db.Log().Size()-int64(db.LastCheckpointEnd()) < recoveryRedoBytes {
		if _, err := step(); err != nil {
			return c, err
		}
	}
	// Leave transactions open with rows of their own, then commit one more
	// transaction so the log holding their records is written before the
	// crash: recovery has to undo them, not merely miss them.
	var open []int64
	for i := 0; i < recoveryOpen; i++ {
		tx, err := db.Begin()
		if err != nil {
			return c, err
		}
		for j := 0; j < recoveryOpenRows; j++ {
			id := hid.Add(1)
			if err := tx.Insert(tpcc.TableHistory, historyRow(id)); err != nil {
				return c, err
			}
			open = append(open, id)
		}
	}
	for {
		committed, err := step()
		if err != nil {
			return c, err
		}
		if committed {
			break
		}
	}
	crashAt := time.Now()
	time.Sleep(time.Millisecond) // later records carry later timestamps
	deltas.add(before, readCounters(db), float64(m.commits-commits0))
	deltas.deadlocks += float64(m.deadlocks - deadlocks0)
	c.txns = m.commits - commits0
	c.redo = int64(db.Log().FlushedLSN()) - int64(db.LastCheckpointEnd())
	db.Crash()

	// Recover copies of the crashed files first, then the files themselves:
	// every Open replays the same log, so one crash gives several samples.
	for k := 0; k < recoveryCopies; k++ {
		cp := fmt.Sprintf("%s-copy%d", dir, k)
		t0 := time.Now()
		err := copyTree(dir, cp)
		c.aside += time.Since(t0)
		if err != nil {
			return c, err
		}
		rdb, err := c.recover(cp, tr, deltas)
		if err != nil {
			return c, err
		}
		t0 = time.Now()
		err = rdb.Close()
		if err == nil {
			err = os.RemoveAll(cp)
		}
		c.aside += time.Since(t0)
		if err != nil {
			return c, err
		}
	}
	db, err := c.recover(dir, tr, deltas)
	if err != nil {
		return c, err
	}
	c.db, m.db = db, db
	return c, recoveryCheck(db, crashAt, acked, open, *payments, asOf, tr, r, st)
}

// recover times engine.Open of a crashed database directory.
func (c *cycleResult) recover(dir string, tr *lane, deltas *layerDeltas) (*engine.DB, error) {
	// A real restart begins in a fresh process: collect the crashed
	// instance's memory before timing recovery, not during it.
	t0 := time.Now()
	runtime.GC()
	c.aside += time.Since(t0)
	sp := tr.begin(spOpen)
	t0, cpu0 := time.Now(), cpuTime()
	db, err := engine.Open(dir, recoveryOptions)
	d := time.Since(t0)
	c.cpu += cpuTime() - cpu0
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	c.opens = append(c.opens, d)
	c.pagesRead = append(c.pagesRead, db.Pool().Stats().Misses)
	// Open ends with a checkpoint; its histogram is on the real clock.
	opened := readCounters(db)
	deltas.ckpts += opened.obs["engine_checkpoint_seconds:count"]
	deltas.ckptSeconds += opened.obs["engine_checkpoint_seconds:sum"]
	return db, nil
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, b, 0o644)
	})
}

func historyRow(id int64) row.Row {
	return row.Row{row.Int64(id), row.Int64(1), row.Int64(1), row.Int64(1),
		row.Float64(1), row.Time(time.Unix(0, 0)), row.String("left open at the crash")}
}

func recoveryCheck(db *engine.DB, crashAt time.Time, acked, open []int64, payments int64, asOf bool, tr *lane, r *workloadResult, st *asofStats) (err error) {
	sp := tr.begin(spLiveRead)
	tx, err := db.Begin()
	if err != nil {
		tr.end(sp)
		return err
	}
	n, err := tx.CountRows(tpcc.TableHistory, nil, nil)
	r.attempted++
	if err == nil {
		r.check(n == int(payments), "recovery: %d history rows, want %d acknowledged payments", n, payments)
		for _, id := range acked {
			_, ok, gerr := tx.Get(tpcc.TableHistory, row.Row{row.Int64(id)})
			r.attempted++
			if err = gerr; err != nil {
				break
			}
			r.check(ok, "recovery: acknowledged history row %d lost", id)
		}
	}
	tx.Rollback()
	tr.end(sp)
	if err != nil || !asOf {
		return err
	}

	// As of the crash instant the open transactions are in flight: the
	// snapshot must undo them and keep every acknowledged commit.
	s, err := mount(db, crashAt, tr, st)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := st.unmount(s, tr); err == nil {
			err = cerr
		}
	}()
	probe := func(id int64, want bool) error {
		for _, kind := range []spanKind{spColdGet, spWarmGet} {
			sp := tr.begin(kind)
			_, ok, err := s.Get(tpcc.TableHistory, row.Row{row.Int64(id)})
			tr.end(sp)
			r.attempted++
			st.queries++
			if err != nil {
				return err
			}
			r.check(ok == want, "recovery: history row %d as of the crash: present=%v, want %v", id, ok, want)
		}
		return nil
	}
	for i := 0; i < 8 && i < len(acked); i++ {
		if err := probe(acked[len(acked)-1-i], true); err != nil {
			return err
		}
	}
	for _, id := range open {
		if err := probe(id, false); err != nil {
			return err
		}
	}
	return nil
}
