package main

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// loadResult is what one load phase observed from the clients' side.
type loadResult struct {
	samples      []sample
	from, to     int64 // ns on the phase's clock: first op start, last op end
	attempted    int64
	failed       int64
	payloadBytes int64
	firstErr     error

	// Open loop only.
	schedLagNs []float64 // how late the generator woke a client that was idle
	backlog    []backlogPoint
	skipped    int64 // due operations never started before the drain limit
}

type backlogPoint struct {
	at    int64 // ns since phase start
	depth int   // operations due but not yet started on this client
}

type clientResult struct {
	samples      []sample
	failed       int64
	payloadBytes int64
	firstErr     error
	schedLagNs   []float64
	backlog      []backlogPoint
	skipped      int64
}

func (r *loadResult) merge(parts []clientResult) {
	for i := range parts {
		p := &parts[i]
		r.samples = append(r.samples, p.samples...)
		r.failed += p.failed
		r.payloadBytes += p.payloadBytes
		if r.firstErr == nil {
			r.firstErr = p.firstErr
		}
		r.schedLagNs = append(r.schedLagNs, p.schedLagNs...)
		r.backlog = append(r.backlog, p.backlog...)
		r.skipped += p.skipped
	}
	r.attempted = int64(len(r.samples)) + r.failed
	sort.Slice(r.samples, func(i, j int) bool { return r.samples[i].end < r.samples[j].end })
	sort.Slice(r.backlog, func(i, j int) bool { return r.backlog[i].at < r.backlog[j].at })
}

func (r *loadResult) seconds() float64 { return float64(r.to-r.from) / 1e9 }

// stopper decides after each operation whether a closed-loop client goes
// on: by deadline for measured phases, by count for warm-up.
type stopper func(done int, now int64) bool

// rssMark reads the process's peak resident set when a closed loop
// completes its at-th operation. Nothing in these workloads frees what it
// has stored (content-addressed blobs, the harness's own samples), so peak
// memory at the end of a timed run counts how many operations the run got
// through, and a faster system would read as a fatter one. At a fixed
// operation count it is a property of the work done.
type rssMark struct {
	at  int64
	n   atomic.Int64
	mib float64 // written by the worker that completes operation at; read after the loop
}

// before wraps stop so that the mark sees every completed operation.
func (m *rssMark) before(stop stopper) stopper {
	return func(done int, now int64) bool {
		if m.n.Add(1) == m.at {
			m.mib = rssPeakMiB()
		}
		return stop(done, now)
	}
}

// runClosed drives every worker in its own goroutine, each issuing its
// next operation as soon as the previous one returns.
func runClosed(clk *clock, e *env, stop stopper) loadResult {
	parts := make([]clientResult, len(e.workers))
	logs := e.opLogs()
	var wg sync.WaitGroup
	res := loadResult{from: clk.now()}
	for i, w := range e.workers {
		wg.Add(1)
		go func(i int, w worker) {
			defer wg.Done()
			p := &parts[i]
			for done := 0; ; {
				w.prepare()
				t0 := clk.now()
				class, key, payload, err := w.do()
				t1 := clk.now()
				if err != nil {
					p.failed++
					if p.firstErr == nil {
						p.firstErr = err
					}
					return // a halted client fails every later op too
				}
				p.samples = append(p.samples, sample{end: t1, latNs: t1 - t0, class: class})
				p.payloadBytes += int64(payload)
				if logs != nil {
					logs[i].add(span{kind: w.opSpan(), class: class, client: int32(i), key: key, start: t0, end: t1})
				}
				done++
				if stop(done, t1) {
					return
				}
			}
		}(i, w)
	}
	wg.Wait()
	res.to = clk.now()
	res.merge(parts)
	return res
}

func stopAfter(clk *clock, d time.Duration) stopper {
	deadline := clk.now() + int64(d)
	return func(_ int, now int64) bool { return now >= deadline }
}

func stopAtCount(n int) stopper {
	return func(done int, _ int64) bool { return done >= n }
}

// opLogs returns one span log per worker on a decorated run, nil
// otherwise.
func (e *env) opLogs() []*spanLog {
	if e.kit == nil {
		return nil
	}
	logs := make([]*spanLog, len(e.workers))
	for i := range logs {
		logs[i] = e.kit.tr.newLog()
	}
	return logs
}

// poissonSchedule returns the due times (ns from phase start) of one
// client's arrivals at ratePerSec over d. Equal (seed, client, rate, d)
// give equal schedules.
func poissonSchedule(seed int64, client int, ratePerSec float64, d time.Duration) []int64 {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(client)*7919 + 17))
	var out []int64
	t := 0.0
	for {
		t += rng.ExpFloat64() / ratePerSec
		at := int64(t * 1e9)
		if at >= int64(d) {
			return out
		}
		out = append(out, at)
	}
}

// drainGrace is how long past the phase an open-loop client keeps working
// off operations that were due inside it. What is still not started after
// that was refused by an overloaded system and counts as missing the
// latency limit.
const drainGrace = 500 * time.Millisecond

// runOpen drives each worker on its own arrival schedule. An operation is
// timed from the moment it was due, not from the moment the client got to
// it, so a stall is charged to every operation it delayed (no coordinated
// omission). A client has one operation in flight at a time, as the
// protocol requires, so operations due while it is busy queue behind it.
func runOpen(clk *clock, e *env, schedules [][]int64, d time.Duration) loadResult {
	parts := make([]clientResult, len(e.workers))
	logs := e.opLogs()
	var wg sync.WaitGroup
	start := clk.now()
	res := loadResult{from: start}
	for i, w := range e.workers {
		wg.Add(1)
		go func(i int, w worker, sched []int64) {
			defer wg.Done()
			p := &parts[i]
			ahead := 0 // first schedule index not yet due
			for k, due := range sched {
				w.prepare()
				now := clk.now() - start
				if now < due {
					sleepUntil(clk, start+due)
					now = clk.now() - start
					p.schedLagNs = append(p.schedLagNs, float64(now-due))
				} else if now > int64(d+drainGrace) {
					p.skipped += int64(len(sched) - k)
					return
				}
				if ahead <= k {
					ahead = k + 1
				}
				for ahead < len(sched) && sched[ahead] <= now {
					ahead++
				}
				p.backlog = append(p.backlog, backlogPoint{at: now, depth: ahead - k - 1})
				t0 := start + now
				class, key, payload, err := w.do()
				t1 := clk.now()
				if err != nil {
					p.failed++
					if p.firstErr == nil {
						p.firstErr = err
					}
					return
				}
				p.samples = append(p.samples, sample{end: t1, latNs: t1 - (start + due), class: class})
				p.payloadBytes += int64(payload)
				if logs != nil {
					logs[i].add(span{kind: w.opSpan(), class: class, client: int32(i), key: key, start: t0, end: t1})
				}
			}
		}(i, w, schedules[i])
	}
	wg.Wait()
	res.to = clk.now()
	res.merge(parts)
	res.attempted += res.skipped
	return res
}

// sleepUntil blocks the calling thread until the clock reads at least
// deadline. It uses nanosleep(2) rather than time.Sleep: the Go runtime
// parks sleepers in the network poller, whose timeout has millisecond
// granularity, so a 50 us sleep there takes about 1.1 ms, which is more
// than the service time the open loop is trying to measure. nanosleep
// overshoots by about 60 us. The thread blocks in the kernel and burns no
// CPU; the runtime hands its P to another thread meanwhile.
func sleepUntil(clk *clock, deadline int64) {
	for {
		left := deadline - clk.now()
		if left <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(left)
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop recomputes what is left
	}
}

func openSchedules(seed int64, clients int, totalRate float64, d time.Duration) [][]int64 {
	out := make([][]int64, clients)
	for i := range out {
		out[i] = poissonSchedule(seed, i, totalRate/float64(clients), d)
	}
	return out
}

// stepVerdict is the outcome of one open-loop rate step.
type stepVerdict struct {
	rate       float64
	p50, ptail float64 // us, from due time
	tailQ      float64 // the percentile ptail is (0.99 when the samples support it)
	n          int
	missed     int64 // failed, or never started before the drain limit
	growing    bool
}

func (v stepVerdict) ok(limitUS float64) bool {
	return v.n > 0 && v.ptail <= limitUS && !v.growing && v.missed == 0
}

// backlogGrowing reports whether queue depth rose over the step: the mean
// depth of the last quarter of the step exceeds twice that of the first
// quarter by more than a handful. A stable queue fluctuates around a
// level; an overloaded one climbs for as long as load is offered.
func backlogGrowing(points []backlogPoint, d time.Duration) bool {
	var first, last, nFirst, nLast float64
	for _, p := range points {
		switch {
		case p.at < int64(d)/4:
			first += float64(p.depth)
			nFirst++
		case p.at >= int64(d)*3/4 && p.at < int64(d):
			last += float64(p.depth)
			nLast++
		}
	}
	if nFirst == 0 || nLast == 0 {
		return false
	}
	return last/nLast > 2*(first/nFirst)+4
}

// judgeStep turns one step's load result into a verdict; failed and
// refused operations are its misses.
func judgeStep(rate float64, r loadResult, d time.Duration) stepVerdict {
	v := stepVerdict{rate: rate, growing: backlogGrowing(r.backlog, d)}
	v.p50, v.n = latQuantile(r.samples, anyClass, 0.50)
	v.tailQ = pickTail(v.n, 0.99)
	v.ptail, _ = latQuantile(r.samples, anyClass, 0.99)
	v.missed = r.failed + r.skipped
	return v
}

// maxRateOK returns the highest rate whose step met the limit with no
// growing backlog and nothing missed, given that every lower step did
// too; 0 when even the first step fails.
func maxRateOK(steps []stepVerdict, limitUS float64) float64 {
	best := 0.0
	for _, s := range steps {
		if !s.ok(limitUS) {
			break
		}
		best = s.rate
	}
	return best
}

// limitMissFrac is the share of a step's attempted operations that missed
// the limit: failed, refused, or completed later than limitUS after they
// were due.
func limitMissFrac(r loadResult, limitUS float64) float64 {
	if r.attempted == 0 {
		return 0
	}
	missed := r.failed + r.skipped
	for _, s := range r.samples {
		if float64(s.latNs)/1e3 > limitUS {
			missed++
		}
	}
	return float64(missed) / float64(r.attempted)
}
