package main

import (
	"fmt"
	"math/bits"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/row"
)

const (
	commitPreload    = 50_000
	commitFrames     = 8192 // 64 MiB: the table stays resident
	commitCheckpoint = 32 << 20
	committers       = 2
)

var benchSchema = &row.Schema{
	Name:    "bench",
	KeyCols: 1,
	Columns: []row.Column{{Name: "id", Kind: row.KindInt64}, {Name: "body", Kind: row.KindString}},
}

// commitKeys maps insert sequence numbers to keys: bit-reversed, so
// consecutive inserts land far apart in the tree, and XORed with a seeded
// mask, which keeps them distinct.
type commitKeys struct{ mask int64 }

func (k commitKeys) key(seq uint64) row.Row {
	return row.Row{row.Int64(int64(bits.Reverse64(seq)>>16) ^ k.mask)}
}

func (k commitKeys) row(seq uint64) row.Row {
	return append(k.key(seq), row.String("payload"))
}

// openCommitDB creates the table and preloads it in batches.
func openCommitDB(dir string, keys commitKeys) (*engine.DB, error) {
	db, err := engine.Open(dir, engine.Options{BufferFrames: commitFrames, CheckpointEvery: commitCheckpoint})
	if err != nil {
		return nil, err
	}
	batch := func(fn func(tx *engine.Txn) error) error {
		tx, err := db.Begin()
		if err != nil {
			return err
		}
		if err := fn(tx); err != nil {
			tx.Rollback()
			return err
		}
		return tx.Commit()
	}
	err = batch(func(tx *engine.Txn) error { return tx.CreateTable(benchSchema) })
	for lo := uint64(1); err == nil && lo <= commitPreload; lo += 1000 {
		err = batch(func(tx *engine.Txn) error {
			for seq := lo; seq < lo+1000 && seq <= commitPreload; seq++ {
				if err := tx.Insert(benchSchema.Name, keys.row(seq)); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err == nil {
		err = db.Checkpoint()
	}
	if err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// runCommit: two committers insert one row and commit, closed loop, into a
// preloaded table that fits the pool. Nearly all the work is the commit
// path: lock, tree insert, log append, log force, release.
func runCommit(rc runConfig) (*workloadResult, error) {
	r := newResult()
	r.trace = newTracer()
	keys := commitKeys{mask: rand.New(rand.NewSource(rc.seed)).Int63() >> 16}
	var deltas layerDeltas
	var st asofStats
	var logBytes float64
	for round := 0; round < rc.rounds; round++ {
		t0 := time.Now()
		db, err := openCommitDB(filepath.Join(rc.dir, fmt.Sprint("r", round)), keys)
		if err != nil {
			return r, err
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
		runtime.GC() // the set-up's garbage is collected before measuring, not during
		before := readCounters(db)
		acked, err := commitRound(db, rc, r, keys, round == rc.rounds-1, &st, rc.seconds/float64(rc.rounds))
		after := readCounters(db)
		if err == nil {
			err = db.Close()
		}
		if err != nil {
			return r, err
		}
		deltas.add(before, after, float64(acked))
		logBytes += after.delta(before, "wal_append_bytes_total")
		if round == 0 {
			r.config["data_pages"] = db.Data().PageCount()
			r.config["buffer_frames"] = commitFrames
			r.config["checkpoint_every_bytes"] = commitCheckpoint
			r.config["committers"] = committers
		}
	}
	deltas.set(r, true)
	st.set(r, deltas.undoReads)
	r.figures["commits_per_s"] = r.rate(false, false)
	r.figures["commit_p50_us"] = quantile(r.lat[0][0], 0.5)
	r.figures["commit_p99_us"] = quantile(r.lat[0][0], 0.99)
	r.figures["log_bytes_per_txn"] = ratio(logBytes, deltas.txns)
	return r, nil
}

// commitRound runs the committers for one round's share of the measured
// time, then checks the row count live and, when asOf is set, as of an
// instant just before the end of the round.
func commitRound(db *engine.DB, rc runConfig, r *workloadResult, keys commitKeys, asOf bool, st *asofStats, seconds float64) (int64, error) {
	var seq atomic.Uint64
	seq.Store(commitPreload)
	// gate lets the check stop the committers between transactions, to
	// note an instant and the inserts acknowledged before it.
	var gate sync.RWMutex
	var acked, attempted atomic.Int64
	sched := newSchedule(rc.trace, false)
	deadline := sched.start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	errs := make([]error, committers)
	lats := make([][]float64, committers)
	ops := make([][2]float64, committers)
	for g := 0; g < committers; g++ {
		tr := r.trace.lane(fmt.Sprint("committer", g), true)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				tr.on = sched.traced(sched.window(t0))
				gate.RLock()
				attempted.Add(1)
				err := commitOne(db, tr, keys.row(seq.Add(1)))
				gate.RUnlock()
				if err != nil {
					errs[g] = err
					return
				}
				acked.Add(1)
				d := time.Since(t0)
				tr.account(d)
				ops[g][b2i(tr.on)]++
				if !tr.on {
					lats[g] = append(lats[g], us(d))
				}
			}
		}()
	}
	var at time.Time
	var seqAt uint64
	if asOf {
		time.Sleep(time.Until(deadline.Add(-windowWidth / 2)))
		gate.Lock()
		at, seqAt = time.Now(), seq.Load()
		time.Sleep(time.Millisecond) // later commits carry later timestamps
		gate.Unlock()
	}
	wg.Wait()
	sched.addArmTime(r, time.Now())
	sched.addCPU(r, float64(acked.Load()))
	r.attempted += attempted.Load()
	for g := 0; g < committers; g++ {
		if errs[g] != nil {
			return 0, errs[g]
		}
		r.ops[0][0] += ops[g][0]
		r.ops[1][0] += ops[g][1]
		r.lat[0][0] = append(r.lat[0][0], lats[g]...)
	}

	tr := r.trace.lane("check", false)
	tr.on = rc.trace
	want := commitPreload + int(acked.Load())
	n, err := liveCount(db, tr)
	if err != nil {
		return 0, err
	}
	r.check(n == want, "commit: %d rows, want preload %d + %d acknowledged", n, commitPreload, acked.Load())
	if asOf {
		err = commitAsOfCheck(db, tr, r, st, keys, at, seqAt)
	}
	return acked.Load(), err
}

func commitOne(db *engine.DB, tr *lane, rw row.Row) error {
	sp := tr.begin(spBegin)
	tx, err := db.Begin()
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin(spBody)
	err = tx.Insert(benchSchema.Name, rw)
	tr.end(sp)
	if err != nil {
		tx.Rollback()
		return err
	}
	sp = tr.begin(spCommit)
	defer tr.end(sp)
	return tx.Commit()
}

func liveCount(db *engine.DB, tr *lane) (int, error) {
	sp := tr.begin(spLiveRead)
	defer tr.end(sp)
	tx, err := db.Begin()
	if err != nil {
		return 0, err
	}
	defer tx.Rollback()
	return tx.CountRows(benchSchema.Name, nil, nil)
}

// commitAsOfCheck mounts a snapshot as of the instant the committers were
// stopped at: it must hold exactly the inserts acknowledged before it.
func commitAsOfCheck(db *engine.DB, tr *lane, r *workloadResult, st *asofStats, keys commitKeys, at time.Time, seqAt uint64) (err error) {
	s, err := mount(db, at, tr, st)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := st.unmount(s, tr); err == nil {
			err = cerr
		}
	}()
	sp := tr.begin(spScan)
	n, err := s.CountRows(benchSchema.Name, nil, nil)
	tr.end(sp)
	r.attempted++
	st.queries++
	if err != nil {
		return err
	}
	r.check(n == int(seqAt), "commit: %d rows as of the stop, want %d", n, seqAt)
	for j := uint64(0); j < 8; j++ {
		for _, c := range []struct {
			seq  uint64
			want bool
		}{{seqAt - j, true}, {seqAt + 1 + j, false}} {
			for _, kind := range []spanKind{spColdGet, spWarmGet} {
				sp := tr.begin(kind)
				_, ok, err := s.Get(benchSchema.Name, keys.key(c.seq))
				tr.end(sp)
				r.attempted++
				st.queries++
				if err != nil {
					return err
				}
				r.check(ok == c.want, "commit: insert %d as of the stop: present=%v, want %v", c.seq, ok, c.want)
			}
		}
	}
	return nil
}
