package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// spanKind names the layer call a span brackets. Spans are recorded by the
// benchmark around calls into each layer's public functions; nothing is
// instrumented inside the program.
type spanKind uint8

const (
	spBegin      spanKind = iota // engine.DB.Begin
	spBody                       // transaction body: Txn.Insert, or one tpcc procedure
	spCommit                     // engine.Txn.Commit
	spRollback                   // engine.Txn.Rollback
	spCheckpoint                 // engine.DB.Checkpoint, called by the benchmark
	spResolve                    // asof.ResolveTime, a probe made only in traced windows
	spCreate                     // asof.CreateSnapshot
	spWaitUndo                   // asof.Snapshot.WaitUndo right after the mount
	spColdGet                    // asof.Snapshot.Get, first read of a key on a snapshot
	spWarmGet                    // asof.Snapshot.Get, repeated read of the same key
	spScan                       // a range read on a snapshot (stock-level or row count)
	spClose                      // asof.Snapshot.Close
	spOpen                       // engine.Open after a crash: recovery
	spLiveRead                   // engine reads made by a correctness check
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	"engine.Begin", "engine.body", "engine.Commit", "engine.Rollback",
	"engine.Checkpoint", "asof.ResolveTime", "asof.CreateSnapshot",
	"asof.WaitUndo", "asof.GetCold", "asof.GetWarm", "asof.Scan",
	"asof.Close", "engine.Open", "engine.LiveRead",
}

type span struct {
	start, end int64 // ns since the tracer's base
	parent     int32 // index of the enclosing span in the lane, -1 if none
	kind       spanKind
}

// lane records the spans of one goroutine; only that goroutine touches it,
// so recording takes no lock. Spans are kept in memory and written out when
// the run ends.
type lane struct {
	base  time.Time
	name  string
	setup bool // set-up work: timed, but not part of the coverage
	on    bool // record spans (set by the owning goroutine between operations)
	spans []span
	open  int32 // innermost open span, -1 if none
	// active is the time the goroutine spent inside measured operations
	// while recording; idle time such as pacing sleeps is not in it.
	active time.Duration
}

func (l *lane) now() int64 { return int64(time.Since(l.base)) }

// begin opens a span of kind k and returns its handle for end.
func (l *lane) begin(k spanKind) int32 {
	if !l.on {
		return -1
	}
	l.spans = append(l.spans, span{start: l.now(), parent: l.open, kind: k})
	l.open = int32(len(l.spans) - 1)
	return l.open
}

func (l *lane) end(i int32) {
	if i < 0 {
		return
	}
	s := &l.spans[i]
	s.end = l.now()
	l.open = s.parent
}

// account adds one measured operation's wall time to the lane's active time.
func (l *lane) account(d time.Duration) {
	if l.on {
		l.active += d
	}
}

// tracer owns the lanes of one run. Lanes made with measured=false record
// set-up work: their spans feed the per-layer timings but not the coverage.
type tracer struct {
	base  time.Time
	lanes []*lane
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) lane(name string, measured bool) *lane {
	l := &lane{base: t.base, name: name, setup: !measured, open: -1}
	t.lanes = append(t.lanes, l)
	return l
}

// traceSummary is what the per-layer metrics are derived from.
type traceSummary struct {
	durs     [nSpanKinds][]float64 // span durations, µs
	self     [nSpanKinds]float64   // summed self time, µs
	covered  time.Duration         // summed self time of measured lanes
	active   time.Duration         // summed active time of measured lanes
	spans    int
	selfTime [][]int64 // per lane, per span: self time in ns
}

// summarize computes every span's self time: its duration minus the part
// of it that its child spans cover.
func (t *tracer) summarize() traceSummary {
	var s traceSummary
	for _, l := range t.lanes {
		child := make([]int64, len(l.spans))
		for _, sp := range l.spans {
			if sp.parent >= 0 {
				child[sp.parent] += sp.end - sp.start
			}
		}
		self := make([]int64, len(l.spans))
		for i, sp := range l.spans {
			d := sp.end - sp.start
			self[i] = d - child[i]
			s.durs[sp.kind] = append(s.durs[sp.kind], float64(d)/1e3)
			s.self[sp.kind] += float64(self[i]) / 1e3
			if !l.setup {
				s.covered += time.Duration(self[i])
			}
		}
		s.selfTime = append(s.selfTime, self)
		s.spans += len(l.spans)
		if !l.setup {
			s.active += l.active
		}
	}
	return s
}

// write dumps every span as a tab-separated line: lane, span index, name,
// start and end (ns since the run began), parent index, self time (ns).
func (t *tracer) write(path string, s traceSummary) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "lane\tspan\tname\tstart_ns\tend_ns\tparent\tself_ns")
	for li, l := range t.lanes {
		for i, sp := range l.spans {
			fmt.Fprintf(w, "%s\t%d\t%s\t%d\t%d\t%d\t%d\n", l.name, i, spanNames[sp.kind],
				sp.start, sp.end, sp.parent, s.selfTime[li][i])
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	return f.Close()
}
