package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/row"
	"repro/internal/tpcc"
	"repro/internal/vclock"
)

// The TPC-C scale of every TPC-C workload. Items=6000 makes the data of
// the rewind history exceed its 16 MiB buffer pool. 150 customers per
// district spread the customer table over about a hundred leaf pages, so
// as-of lookups sample many pages and their cost does not hang on how a
// few pages' change histories fell for one seed.
func tpccScale(seed int64) tpcc.Config {
	cfg := tpcc.DefaultConfig()
	cfg.Items = 6000
	cfg.CustomersPerD = 150
	cfg.Seed = seed
	return cfg
}

const (
	rewindHistory  = 50 * time.Minute       // virtual history built by one client
	rewindStep     = 250 * time.Millisecond // virtual time per transaction: 12,000 in the history
	rewindFrames   = 2048                   // 16 MiB buffer pool
	rewindImageGap = 100                    // a full page image every 100th change, as in Figs 7-11
)

// rewindBack are the instants the reader rewinds to, before the end of the
// history: near, middle and far.
var rewindBack = []time.Duration{time.Minute, 15 * time.Minute, 45 * time.Minute}

// rewindTruth is what the history builder read live at one instant: every
// customer row and the stock-level answer of every district.
type rewindTruth struct {
	at        time.Time
	customers map[[3]int64]row.Row
	stockLow  map[[2]int]int
	logAtTime int64 // log size then: the log a snapshot of this instant rewinds
}

// rewindSlot is one snapshot of the reader's schedule: the instant, the
// customers read and the district of the stock-level query.
type rewindSlot struct {
	truth int
	keys  []row.Row
	w, d  int
}

// rewindSchedule is one pass of the reader: a snapshot for every rewind
// instant and district, whose stock-level query covers that district.
// Each also reads one customer, drawn from the seed, of every other
// district, so no two reads of a snapshot share a leaf page and every read
// is cold. Covering every pair, rather than sampling them, keeps the
// pass's cost from hanging on which districts a seed drew.
func rewindSchedule(seed int64, cfg tpcc.Config) []rewindSlot {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var slots []rewindSlot
	for w := 1; w <= cfg.Warehouses; w++ {
		for d := 1; d <= cfg.DistrictsPerW; d++ {
			for i := range rewindBack {
				sl := rewindSlot{truth: i, w: w, d: d}
				for kw := 1; kw <= cfg.Warehouses; kw++ {
					for kd := 1; kd <= cfg.DistrictsPerW; kd += 2 {
						sl.keys = append(sl.keys, keyWDC(kw, kd, 1+rng.Intn(cfg.CustomersPerD)))
					}
				}
				slots = append(slots, sl)
			}
		}
	}
	return slots
}

// buildRewindHistory loads TPC-C and runs the mix on one client for 50
// virtual minutes, reading the truth live at each rewind instant.
func buildRewindHistory(dir string, cfg tpcc.Config, seed int64, tr *lane) (*engine.DB, []rewindTruth, error) {
	clock := vclock.New(time.Time{})
	db, err := engine.Open(dir, engine.Options{
		Now:            clock.Now,
		BufferFrames:   rewindFrames,
		PageImageEvery: rewindImageGap,
	})
	if err != nil {
		return nil, nil, err
	}
	if err := tpcc.Load(db, cfg); err != nil {
		db.Close()
		return nil, nil, err
	}
	end := clock.Now().Add(rewindHistory)
	truths := make([]rewindTruth, len(rewindBack))
	for i, back := range rewindBack {
		truths[i].at = end.Add(-back)
	}
	var hid atomic.Int64
	m := newMix(db, cfg, seed, &hid, clock, rewindStep, tr)
	next := len(truths) - 1 // truths are in descending time order
	for clock.Now().Before(end) {
		// The clock is past the instant and every commit before it is in:
		// the live state now is the state as of the instant.
		for next >= 0 && clock.Now().After(truths[next].at) {
			if err := readTruth(db, cfg, &truths[next]); err != nil {
				db.Close()
				return nil, nil, err
			}
			next--
		}
		if _, err := m.one(); err != nil {
			db.Close()
			return nil, nil, err
		}
	}
	return db, truths, nil
}

func custKey(r row.Row) [3]int64 { return [3]int64{r[0].Int, r[1].Int, r[2].Int} }

// readTruth reads every customer row and every district's stock level live.
func readTruth(db *engine.DB, cfg tpcc.Config, t *rewindTruth) error {
	tx, err := db.Begin()
	if err != nil {
		return err
	}
	defer tx.Rollback()
	t.customers = map[[3]int64]row.Row{}
	err = tx.Scan(tpcc.TableCustomer, nil, nil, func(r row.Row) bool {
		t.customers[custKey(r)] = r
		return true
	})
	t.stockLow = map[[2]int]int{}
	for w := 1; err == nil && w <= cfg.Warehouses; w++ {
		for d := 1; err == nil && d <= cfg.DistrictsPerW; d++ {
			t.stockLow[[2]int{w, d}], err = tpcc.StockLevel(tx, w, d, 15)
		}
	}
	t.logAtTime = db.Log().Size()
	return err
}

// runRewind: one reader mounts snapshots 45, 15 and 1 virtual minutes back
// into a 50-minute TPC-C history and reads each cold, warm and by range.
// An operation is one as-of query: mount, reads, unmount.
// The commit path is idle; the as-of chain walk, the log block cache and
// the side file do the work.
func runRewind(rc runConfig) (*workloadResult, error) {
	r := newResult()
	r.trace = newTracer()
	cfg := tpccScale(rc.seed)
	slots := rewindSchedule(rc.seed, cfg)
	// all holds every snapshot; counted only the first pass over the
	// schedule in each round, so its counts do not depend on how many
	// snapshots the measured time allowed.
	var all, counted asofStats
	var deltas layerDeltas
	var lookups, warm, scans []float64
	for round := 0; round < rc.rounds; round++ {
		t0 := time.Now()
		// The measured phase makes no transactions, so a traced run traces
		// the history build for the engine's per-layer timings.
		setup := r.trace.lane(fmt.Sprint("setup", round), false)
		setup.on = rc.trace
		db, truths, err := buildRewindHistory(filepath.Join(rc.dir, fmt.Sprint("r", round)), cfg, rc.seed, setup)
		if err != nil {
			return r, err
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
		if round == 0 {
			now, logEnd := db.Now(), db.Log().Size()
			rewound := map[string]int64{}
			for _, t := range truths {
				rewound[now.Sub(t.at).String()] = (logEnd - t.logAtTime) >> 15
			}
			r.config["data_pages"] = db.Data().PageCount()
			r.config["buffer_frames"] = rewindFrames
			r.config["log_cache_blocks"] = 256 // the engine default
			r.config["rewound_log_blocks"] = rewound
		}

		runtime.GC() // the set-up's garbage is collected before measuring, not during
		tr := r.trace.lane(fmt.Sprint("reader", round), true)
		sched := newSchedule(rc.trace, false)
		before := readCounters(db)
		deadline := sched.start.Add(time.Duration(rc.seconds / float64(rc.rounds) * float64(time.Second)))
		cpuOps0 := float64(all.snapshots)
		for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
			for _, slot := range slots {
				c0 := time.Now()
				if pass > 0 && !c0.Before(deadline) {
					break
				}
				tr.on = sched.traced(sched.window(c0))
				var one asofStats
				err := rewindOnce(db, slot, truths[slot.truth], tr, &one, r, &lookups, &warm, &scans)
				if err != nil {
					db.Close()
					return r, err
				}
				d := time.Since(c0)
				tr.account(d)
				t := b2i(tr.on)
				r.ops[t][0]++
				r.time[t][0] += d
				if !tr.on {
					r.lat[0][0] = append(r.lat[0][0], us(d))
				}
				all.merge(one)
				if pass == 0 {
					counted.merge(one)
				}
			}
		}
		tr.on = false
		sched.addCPU(r, float64(all.snapshots)-cpuOps0)
		deltas.add(before, readCounters(db), 0)
		if err := db.Close(); err != nil {
			return r, err
		}
	}
	deltas.set(r, false)
	counted.set(r, deltas.undoReads)
	r.layer["wal.undo_reads_per_query"] = ratio(deltas.undoReads, float64(all.queries))
	r.figures["snapshot_create_ms"] = median(all.createMs)
	r.figures["snapshots"] = float64(all.snapshots)
	r.figures["asof_lookup_us"] = quantile(lookups, 0.5)
	r.figures["asof_lookup_p99_us"] = quantile(lookups, 0.99)
	r.figures["asof_warm_lookup_us"] = quantile(warm, 0.5)
	r.figures["asof_scan_ms"] = quantile(scans, 0.5) / 1e3
	return r, nil
}

// rewindOnce mounts one snapshot of the schedule and runs its reads,
// checking each against what was read live at that instant.
func rewindOnce(db *engine.DB, slot rewindSlot, truth rewindTruth, tr *lane, st *asofStats, r *workloadResult, lookups, warm, scans *[]float64) (err error) {
	s, err := mount(db, truth.at, tr, st)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := st.unmount(s, tr); err == nil {
			err = cerr
		}
	}()
	get := func(kind spanKind, lat *[]float64, key row.Row) error {
		sp := tr.begin(kind)
		t0 := time.Now()
		got, ok, err := s.Get(tpcc.TableCustomer, key)
		d := time.Since(t0)
		tr.end(sp)
		r.attempted++
		st.queries++
		if err != nil {
			return err
		}
		if !tr.on {
			*lat = append(*lat, us(d))
		}
		r.check(ok && reflect.DeepEqual(got, truth.customers[custKey(key)]),
			"rewind: customer %v as of %v differs from the live read", key, truth.at)
		return nil
	}
	for _, kind := range []spanKind{spColdGet, spWarmGet} {
		lat := map[spanKind]*[]float64{spColdGet: lookups, spWarmGet: warm}[kind]
		for _, key := range slot.keys {
			if err := get(kind, lat, key); err != nil {
				return err
			}
		}
	}
	before := s.Stats().PagesPrepared.Load()
	sp := tr.begin(spScan)
	t0 := time.Now()
	low, err := tpcc.StockLevel(s, slot.w, slot.d, 15)
	d := time.Since(t0)
	tr.end(sp)
	r.attempted++
	st.queries++
	if err != nil {
		return err
	}
	if !tr.on {
		*scans = append(*scans, us(d))
	}
	st.scans++
	st.scanPages += s.Stats().PagesPrepared.Load() - before
	want := truth.stockLow[[2]int{slot.w, slot.d}]
	r.check(low == want, "rewind: stock level of %d/%d as of %v = %d, live read %d", slot.w, slot.d, truth.at, low, want)
	return nil
}
