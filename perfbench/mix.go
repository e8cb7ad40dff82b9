package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/row"
	"repro/internal/storage/buffer"
	"repro/internal/tpcc"
	"repro/internal/txn"
	"repro/internal/vclock"
)

// mix runs the standard TPC-C mix (45% NewOrder, 43% Payment, 4% each
// OrderStatus, Delivery, StockLevel) one transaction at a time through the
// exported per-transaction functions of internal/tpcc. It keeps its own
// history-id counter: tpcc.Driver restarts its counter at 0, so on a
// reopened database its first Payment fails with "row already exists:
// history".
type mix struct {
	db    *engine.DB
	cfg   tpcc.Config
	rng   *rand.Rand
	hid   *atomic.Int64 // history ids; shared by every mix on one database
	clock *vclock.Clock // virtual clock advanced per transaction; nil on real time
	step  time.Duration // virtual time one transaction takes
	// ckptEvery checkpoints every so much virtual time, the paper's 30 s
	// target recovery interval (§6.1). Zero leaves checkpoints to the engine.
	ckptEvery time.Duration
	lastCkpt  time.Time
	tr        *lane

	commits, deadlocks int64
}

func newMix(db *engine.DB, cfg tpcc.Config, seed int64, hid *atomic.Int64, clock *vclock.Clock, step time.Duration, tr *lane) *mix {
	m := &mix{db: db, cfg: cfg, rng: rand.New(rand.NewSource(seed)), hid: hid, clock: clock, step: step, tr: tr}
	if clock != nil {
		m.ckptEvery = 30 * time.Second
		m.lastCkpt = clock.Now()
	}
	return m
}

// one runs one transaction of the mix to its end, retrying deadlock
// victims. It reports whether the transaction committed (a 1% NewOrder
// user abort does not).
func (m *mix) one() (bool, error) {
	w := 1 + m.rng.Intn(m.cfg.Warehouses)
	d := 1 + m.rng.Intn(m.cfg.DistrictsPerW)
	pick := m.rng.Intn(100)
	for attempt := 0; attempt < 100; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(m.rng.Intn(1+min(attempt*300, 20000))) * time.Microsecond)
		}
		sp := m.tr.begin(spBegin)
		tx, err := m.db.Begin()
		m.tr.end(sp)
		if err != nil {
			return false, err
		}
		now := m.db.Now()
		sp = m.tr.begin(spBody)
		switch {
		case pick < 45:
			err = tpcc.NewOrder(tx, m.cfg, m.rng, w, d, now)
		case pick < 88:
			err = tpcc.Payment(tx, m.cfg, m.rng, w, d, m.hid.Add(1), now)
		case pick < 92:
			err = tpcc.OrderStatus(tx, m.cfg, m.rng, w, d)
		case pick < 96:
			err = tpcc.Delivery(tx, m.cfg, w, 1+m.rng.Intn(10), now)
		default:
			_, err = tpcc.StockLevel(tx, w, d, 15)
		}
		m.tr.end(sp)
		switch {
		case err == nil:
			sp = m.tr.begin(spCommit)
			err = tx.Commit()
			m.tr.end(sp)
			if err != nil {
				return false, err
			}
			m.commits++
			return true, m.tick()
		case errors.Is(err, tpcc.ErrUserAbort):
			if err := m.rollback(tx); err != nil {
				return false, err
			}
			return false, m.tick()
		case errors.Is(err, txn.ErrDeadlock) || errors.Is(err, txn.ErrLockTimeout):
			if err := m.rollback(tx); err != nil {
				return false, err
			}
			m.deadlocks++
		default:
			m.rollback(tx)
			return false, fmt.Errorf("tpcc: %w", err)
		}
	}
	return false, errors.New("tpcc: transaction starved by deadlock retries")
}

func (m *mix) rollback(tx *engine.Txn) error {
	sp := m.tr.begin(spRollback)
	defer m.tr.end(sp)
	return tx.Rollback()
}

// tick advances the virtual clock and takes the periodic checkpoint.
func (m *mix) tick() error {
	if m.clock == nil {
		return nil
	}
	now := m.clock.Advance(m.step)
	if m.ckptEvery == 0 || now.Sub(m.lastCkpt) < m.ckptEvery {
		return nil
	}
	m.lastCkpt = now
	return m.checkpoint()
}

func (m *mix) checkpoint() error {
	sp := m.tr.begin(spCheckpoint)
	defer m.tr.end(sp)
	return m.db.Checkpoint()
}

// TPC-C primary keys, built the way internal/tpcc builds them.
func keyWD(w, d int) row.Row { return row.Row{row.Int64(int64(w)), row.Int64(int64(d))} }

func keyWDC(w, d, c int) row.Row {
	return row.Row{row.Int64(int64(w)), row.Int64(int64(d)), row.Int64(int64(c))}
}

// counters is a reading of the counters the layers export: the metric
// registry (db.Obs().Snapshot()) and the buffer pool's Stats.
type counters struct {
	obs  map[string]float64
	pool buffer.Stats
}

func readCounters(db *engine.DB) counters {
	return counters{obs: db.Obs().Snapshot(), pool: db.Pool().Stats()}
}

// delta is the change of one registry sample since prev.
func (c counters) delta(prev counters, name string) float64 { return c.obs[name] - prev.obs[name] }

// layerDeltas accumulates counter deltas over a run's measured intervals.
type layerDeltas struct {
	txns                                float64 // transactions the interval committed
	flushes, appends, undoReads         float64
	ckpts, ckptSeconds                  float64
	hits, misses, writebacks, deadlocks float64
}

func (d *layerDeltas) add(before, after counters, txns float64) {
	d.txns += txns
	d.flushes += after.delta(before, "wal_flushes_total")
	d.appends += after.delta(before, "wal_appends_total")
	d.undoReads += after.delta(before, "wal_undo_reads_total")
	d.ckpts += after.delta(before, "engine_checkpoints_total")
	d.ckptSeconds += after.delta(before, "engine_checkpoint_seconds:sum")
	d.hits += float64(after.pool.Hits - before.pool.Hits)
	d.misses += float64(after.pool.Misses - before.pool.Misses)
	d.writebacks += float64(after.pool.Writebacks - before.pool.Writebacks)
}

// set writes the counter-derived per-layer metrics. realClock says the
// engine ran on the real clock, so its checkpoint histogram holds real
// durations; on a virtual clock the benchmark's own checkpoint spans are
// used instead.
func (d *layerDeltas) set(r *workloadResult, realClock bool) {
	k := d.txns / 1000
	r.layer["engine.deadlock_retries_per_ktxn"] = ratio(d.deadlocks, k)
	r.layer["engine.checkpoints_per_ktxn"] = ratio(d.ckpts, k)
	if realClock {
		r.layer["engine.checkpoint_ms"] = ratio(d.ckptSeconds*1e3, d.ckpts)
	}
	r.layer["wal.commits_per_flush"] = ratio(d.txns, d.flushes)
	r.layer["wal.appends_per_txn"] = ratio(d.appends, d.txns)
	r.layer["buffer.hit_ratio"] = ratio(d.hits, d.hits+d.misses)
	r.layer["buffer.writebacks_per_ktxn"] = ratio(d.writebacks, k)
}
