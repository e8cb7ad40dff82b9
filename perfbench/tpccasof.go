package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asof"
	"repro/internal/engine"
	"repro/internal/row"
	"repro/internal/tpcc"
	"repro/internal/vclock"
)

const (
	tpccAsOfStep   = 100 * time.Millisecond // virtual time per transaction, as tpcc.Driver
	tpccAsOfBack   = 5 * time.Minute        // how far back the §6.3 reader mounts
	tpccAsOfWarm   = 6 * time.Minute        // history written before measuring
	tpccAsOfFrames = 4096                   // 32 MiB: the working set stays resident
	// tpccAsOfLogCache holds the rewound 5-minute window (32 MiB).
	tpccAsOfLogCache = 1024
)

// runTPCCAsOf: one TPC-C client writes beside one §6.3-paced as-of reader
// on the same primary. Windows with the reader on and off alternate within
// each round, so the ratio of their throughputs is the §6.3 number and box
// drift touches both alike.
func runTPCCAsOf(rc runConfig) (*workloadResult, error) {
	r := newResult()
	r.trace = newTracer()
	r.headlineLoop = true
	cfg := tpccScale(rc.seed)
	var st asofStats
	var deltas layerDeltas
	var scans []float64
	var logBytes float64
	for round := 0; round < rc.rounds; round++ {
		t0 := time.Now()
		clock := vclock.New(time.Time{})
		db, err := engine.Open(filepath.Join(rc.dir, fmt.Sprint("r", round)), engine.Options{
			Now:            clock.Now,
			BufferFrames:   tpccAsOfFrames,
			LogCacheBlocks: tpccAsOfLogCache,
		})
		if err != nil {
			return r, err
		}
		var hid atomic.Int64
		m := newMix(db, cfg, rc.seed, &hid, clock, tpccAsOfStep, r.trace.lane(fmt.Sprint("setup", round), false))
		err = tpcc.Load(db, cfg)
		for start := clock.Now(); err == nil && clock.Now().Sub(start) < tpccAsOfWarm; {
			_, err = m.one()
		}
		if err != nil {
			db.Close()
			return r, err
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())

		runtime.GC() // the set-up's garbage is collected before measuring, not during
		before := readCounters(db)
		commits0, deadlocks0, vstart := m.commits, m.deadlocks, clock.Now()
		err = tpccAsOfRound(db, clock, m, cfg, rc, r, &st, &scans, rc.seconds/float64(rc.rounds))
		after := readCounters(db)
		if err == nil {
			err = db.Close()
		}
		if err != nil {
			return r, err
		}
		deltas.add(before, after, float64(m.commits-commits0))
		deltas.deadlocks += float64(m.deadlocks - deadlocks0)
		logBytes += after.delta(before, "wal_append_bytes_total")
		if round == 0 {
			r.config["data_pages"] = db.Data().PageCount()
			r.config["buffer_frames"] = tpccAsOfFrames
			r.config["log_cache_blocks"] = tpccAsOfLogCache
			perMin := ratio(logBytes, clock.Now().Sub(vstart).Minutes())
			r.config["rewound_log_blocks"] = int64(perMin*tpccAsOfBack.Minutes()) >> 15
			r.config["tpcc_items"] = cfg.Items
			r.config["tpcc_warehouses"] = cfg.Warehouses
		}
	}
	deltas.set(r, false)
	st.set(r, deltas.undoReads)
	tpm, tpmAsOf := r.rate(false, false)*60, r.rate(false, true)*60
	r.figures["tpm"] = tpm
	r.figures["tpm_asof"] = tpmAsOf
	r.figures["asof_tpm_ratio"] = ratio(tpmAsOf, tpm)
	r.figures["asof_scan_ms"] = median(scans) / 1e3
	r.figures["log_bytes_per_txn"] = ratio(logBytes, deltas.txns)
	return r, nil
}

// tpccAsOfRound runs the writer and the paced reader for one round.
func tpccAsOfRound(db *engine.DB, clock *vclock.Clock, m *mix, cfg tpcc.Config, rc runConfig, r *workloadResult, st *asofStats, scans *[]float64, seconds float64) error {
	sched := newSchedule(rc.trace, true)
	deadline := sched.start.Add(time.Duration(seconds * float64(time.Second)))
	wr := r.trace.lane("writer", true)
	rd := r.trace.lane("reader", true)
	m.tr = wr
	var wg sync.WaitGroup
	var readErr error
	var readerAttempts int64
	var torn []string
	wg.Add(1)
	go func() {
		defer wg.Done()
		readErr = asofReader(db, clock, cfg, sched, deadline, rd, st, scans, &readerAttempts, &torn)
	}()
	var lat [2][2][]float64
	var ops [2][2]float64
	var err error
	for {
		t0 := time.Now()
		if !t0.Before(deadline) {
			break
		}
		w := sched.window(t0)
		wr.on = sched.traced(w)
		var committed bool
		committed, err = m.one()
		r.attempted++
		if err != nil {
			break
		}
		d := time.Since(t0)
		wr.account(d)
		if committed {
			t, l := b2i(wr.on), b2i(sched.loopOn(w))
			ops[t][l]++
			lat[t][l] = append(lat[t][l], us(d))
		}
	}
	wr.on = false
	wg.Wait()
	sched.addArmTime(r, time.Now())
	sched.addCPU(r, ops[0][0]+ops[0][1]+ops[1][0]+ops[1][1])
	for t := 0; t < 2; t++ {
		for l := 0; l < 2; l++ {
			r.ops[t][l] += ops[t][l]
			r.lat[t][l] = append(r.lat[t][l], lat[t][l]...)
		}
	}
	r.attempted += readerAttempts
	for _, msg := range torn {
		r.fail(msg)
	}
	if err != nil {
		return err
	}
	return readErr
}

// asofReader is the §6.3 as-of loop, run only in loop-on windows: mount a
// snapshot 5 minutes back, check it, run stock-level queries until the
// query side has spent 1.5x the mount, then pause 7x the busy time, which
// imposes the load of one of the paper's eight cores. The pause only runs
// down in loop-on windows.
func asofReader(db *engine.DB, clock *vclock.Clock, cfg tpcc.Config, sched *schedule, deadline time.Time, tr *lane,
	st *asofStats, scans *[]float64, attempts *int64, torn *[]string) error {
	var pause time.Duration
	q := 0
	for {
		now := time.Now()
		if !now.Before(deadline) {
			return nil
		}
		w := sched.window(now)
		next := sched.start.Add(time.Duration(w+1) * windowWidth)
		if !sched.loopOn(w) {
			time.Sleep(time.Until(next))
			continue
		}
		if pause > 0 {
			d := min(pause, time.Until(next))
			time.Sleep(d)
			pause -= d
			continue
		}
		tr.on = sched.traced(w)
		busy := time.Now()
		s, err := mount(db, clock.Now().Add(-tpccAsOfBack), tr, st)
		if err != nil {
			return err
		}
		created := time.Since(busy)
		*attempts++
		if msg := ytdMismatch(s, cfg, tr); msg != "" {
			*torn = append(*torn, "tpcc_asof: "+msg)
		}
		st.queries++
		qStart := time.Now()
		for {
			prepared := s.Stats().PagesPrepared.Load()
			sp := tr.begin(spScan)
			t0 := time.Now()
			_, err = tpcc.StockLevel(s, q%cfg.Warehouses+1, q%cfg.DistrictsPerW+1, 15)
			d := time.Since(t0)
			tr.end(sp)
			st.scanPages += s.Stats().PagesPrepared.Load() - prepared
			q++
			*attempts++
			st.queries++
			st.scans++
			if err != nil {
				break
			}
			if !tr.on {
				*scans = append(*scans, us(d))
			}
			if time.Since(qStart) >= created*3/2 || !sched.loopOn(sched.window(time.Now())) {
				break
			}
		}
		if cerr := st.unmount(s, tr); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		d := time.Since(busy)
		tr.account(d)
		pause = 7 * d
		tr.on = false
	}
}

// ytdMismatch checks the snapshot's TPC-C consistency condition: each
// warehouse's W_YTD equals the sum of its districts' D_YTD. A view torn by
// the concurrent writer breaks it. It returns "" when the condition holds.
func ytdMismatch(s *asof.Snapshot, cfg tpcc.Config, tr *lane) string {
	for w := 1; w <= cfg.Warehouses; w++ {
		var wytd float64
		for _, kind := range []spanKind{spColdGet, spWarmGet} {
			sp := tr.begin(kind)
			wr, ok, err := s.Get(tpcc.TableWarehouse, row.Row{row.Int64(int64(w))})
			tr.end(sp)
			if err != nil || !ok {
				return fmt.Sprintf("warehouse %d: ok=%v err=%v", w, ok, err)
			}
			wytd = wr[7].Float
		}
		var dytd float64
		sp := tr.begin(spScan)
		err := s.Scan(tpcc.TableDistrict, keyWD(w, 0), keyWD(w+1, 0), func(d row.Row) bool {
			dytd += d[4].Float
			return true
		})
		tr.end(sp)
		if err != nil {
			return fmt.Sprintf("districts of %d: %v", w, err)
		}
		if math.Abs(wytd-dytd) > 1e-6*math.Max(1, math.Abs(wytd)) {
			return fmt.Sprintf("warehouse %d as of %v: W_YTD %.2f, sum of D_YTD %.2f", w, s.AsOfTime(), wytd, dytd)
		}
	}
	return ""
}
