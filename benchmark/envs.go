package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"faust/internal/crypto"
	"faust/internal/faustproto"
	"faust/internal/history"
	"faust/internal/offline"
	"faust/internal/store"
	"faust/internal/transport"
	"faust/internal/ustor"
	"faust/internal/workload"
)

// Fixed workload parameters. They are part of the benchmark's definition:
// changing one changes what every recorded number means.
const (
	historyOps = 5000 // ops per register workload checked for linearizability

	faustMemClients = 2
	faustMemValue   = 64
	regValue        = 256
	regTCPClients   = 2
	regSatClients   = 16
	snapshotEvery   = 1024
	flushInterval   = 2 * time.Millisecond
	lagSampleEvery  = 50 // every 50th write feeds the stability-lag watcher
	lagTimeout      = 2 * time.Second

	// Warm-up is a fixed number of operations per client, not a duration,
	// so that set-up time measures work and not a timer.
	warmFaustMem = 2000
	warmRegTCP   = 1000
	warmRegSat   = 150
	warmKV       = 1000
)

// worker runs one protocol client's generated operations.
type worker interface {
	// prepare generates the next operation, outside the timed section.
	prepare()
	// do runs the prepared operation. key identifies the
	// operation's spans: Submit.T for register ops, the op sequence number
	// for KV ops. payload is the user bytes written (0 for reads).
	do() (class opClass, key int64, payload int, err error)
	// opSpan is the span kind the load loop records around do.
	opSpan() spanKind
}

// env is one built instance of a workload: server, transport, clients and
// the generated operation streams.
type env struct {
	wl      string
	n       int
	seed    int64
	dir     string
	kit     *spyKit // nil on an undecorated run
	workers []worker
	ring    *crypto.Keyring
	signers []*crypto.Signer

	failed func() error // first client reporting Failed(), nil if none
	stop   func()       // stops clients and transport; idempotent

	hist        *history.Recorder
	histLeft    atomic.Int64 // slots left among the first historyOps operations
	histPending atomic.Int64 // slot holders still in flight

	wal *walEnv
	kv  *kvEnv
	lag *lagWatch
}

func (e *env) close() {
	e.stop()
	if e.wal != nil {
		_ = e.wal.closeStore()
	}
	if e.dir != "" {
		_ = os.RemoveAll(e.dir)
	}
}

// walEnv is the durable half of the two WAL workloads.
type walEnv struct {
	dir   string
	ps    *store.Persistent
	n     int
	fsync bool

	closeOnce sync.Once
	closeErr  error
}

// closeStore closes the persistent server and its backend; the directory
// stays recoverable. Idempotent.
func (w *walEnv) closeStore() error {
	w.closeOnce.Do(func() { w.closeErr = w.ps.Close() })
	return w.closeErr
}

// walOptions is the WAL configuration of both durable workloads: group
// commit with the 2 ms background flusher. fsync adds what faust-server
// -fsync adds, an fdatasync per flush, and only the traced run asks for it.
// On the reference runner's virtual disk that call takes 130 us in a good
// minute and 7 ms in a bad one (the first two of ten 20 s reg-tcp-wal runs
// with it completed 288 and 2340 ops/s, the other eight 3700 to 3960), and
// a gate cannot carry that. So the gating run measures everything a change
// to the durability path can touch except the device: record framing, the
// group-commit buffer, one write per flush, the flusher goroutine,
// snapshot rotation, recovery. The traced run, whose numbers have no
// bound, syncs, so store.flush_* and the e2e.* rows of the WAL workloads
// are those of the durable configuration.
func walOptions(fsync bool) store.FileOptions {
	return store.FileOptions{Fsync: fsync, GroupCommit: true, FlushInterval: flushInterval}
}

func openWAL(dir string, n int, kit *spyKit, fsync bool) (*walEnv, error) {
	fb, err := store.OpenFile(dir, walOptions(fsync))
	if err != nil {
		return nil, err
	}
	var backend store.Backend = fb
	var core store.Core = ustor.NewServer(n)
	if kit != nil {
		backend = kit.wrapBackend(backend)
		core = kit.wrapApply(core)
	}
	ps, err := store.Open(core, backend, store.Options{SnapshotEvery: snapshotEvery})
	if err != nil {
		_ = fb.Close()
		return nil, err
	}
	return &walEnv{dir: dir, ps: ps, n: n, fsync: fsync}, nil
}

// regClient is what the register load loop drives; faustproto.Client has
// exactly this shape, ustor.Client gets it from ustorClient.
type regClient interface {
	Write(x []byte) (int64, error)
	Read(j int) ([]byte, int64, error)
}

type ustorClient struct{ c *ustor.Client }

func (u ustorClient) Write(x []byte) (int64, error) {
	res, err := u.c.WriteX(context.Background(), x)
	return res.Timestamp, err
}

func (u ustorClient) Read(j int) ([]byte, int64, error) {
	res, err := u.c.ReadX(context.Background(), j)
	return res.Value, res.Timestamp, err
}

type regWorker struct {
	e      *env
	client int
	c      regClient
	stream *workload.Stream
	writes int
	op     workload.Op
}

func (w *regWorker) opSpan() spanKind { return spOp }

func (w *regWorker) prepare() { w.op = w.stream.Next() }

// record enters op into the checked history if it belongs there: the first
// historyOps operations do, and so does any later write invoked while one
// of those is still in flight, because that operation may be a read that
// returns the write's value. Without the second clause the checker meets,
// about once in a hundred runs, a read of "a value never written". counted
// tells done whether the operation holds one of the first historyOps slots.
func (e *env) record(client int, op workload.Op) (pend *history.PendingOp, counted bool) {
	e.histPending.Add(1) // before taking a slot, so a later write cannot miss us
	counted = e.histLeft.Load() > 0 && e.histLeft.Add(-1) >= 0
	if !counted {
		e.histPending.Add(-1)
		if !op.IsWrite || e.histPending.Load() == 0 {
			return nil, false
		}
	}
	kind := history.OpRead
	if op.IsWrite {
		kind = history.OpWrite
	}
	return e.hist.Invoke(client, kind, op.Reg, op.Value), counted
}

func (e *env) recorded(pend *history.PendingOp, counted bool, value []byte, ts int64) {
	if pend != nil {
		pend.Complete(value, ts)
	}
	if counted {
		e.histPending.Add(-1)
	}
}

func (w *regWorker) do() (opClass, int64, int, error) {
	op := w.op
	pend, counted := w.e.record(w.client, op)
	if op.IsWrite {
		ts, err := w.c.Write(op.Value)
		if err != nil {
			return classWrite, 0, 0, err
		}
		w.e.recorded(pend, counted, nil, ts)
		w.writes++
		if w.e.lag != nil && w.writes%lagSampleEvery == 0 {
			w.e.lag.offer(w.client, ts)
		}
		return classWrite, ts, len(op.Value), nil
	}
	val, ts, err := w.c.Read(op.Reg)
	if err != nil {
		return classRead, 0, 0, err
	}
	w.e.recorded(pend, counted, val, ts)
	return classRead, ts, 0, nil
}

func (e *env) addRegWorkers(clients []regClient, valueSize int) {
	wl := workload.New(e.n, workload.Config{ReadFraction: 0.5, ValueSize: valueSize, Seed: e.seed})
	e.hist = history.NewRecorder(e.n)
	e.histLeft.Store(historyOps)
	for i, c := range clients {
		e.workers = append(e.workers, &regWorker{e: e, client: i, c: c, stream: wl.Stream(i)})
	}
}

func firstFailed[C interface{ Failed() (bool, error) }](clients []C) func() error {
	return func() error {
		for i, c := range clients {
			if failed, err := c.Failed(); failed {
				return fmt.Errorf("client %d reports the server failed: %v", i, err)
			}
		}
		return nil
	}
}

// lagWatch measures the paper's own observable: how long after Write
// returns the operation becomes stable with respect to all clients. One
// watcher goroutine per client takes a sample when it is free; a sample
// offered while it still waits on the previous one is dropped, so the
// load loop never blocks on it.
type lagWatch struct {
	wg    sync.WaitGroup
	chans []chan lagProbe
	mu    sync.Mutex
	lagNs []float64
	lost  int
}

type lagProbe struct {
	ts int64
	at time.Time
}

func newLagWatch(clients []*faustproto.Client) *lagWatch {
	lw := &lagWatch{chans: make([]chan lagProbe, len(clients))}
	for i, c := range clients {
		ch := make(chan lagProbe, 1)
		lw.chans[i] = ch
		lw.wg.Add(1)
		go func(c *faustproto.Client) {
			defer lw.wg.Done()
			for p := range ch {
				err := c.WaitStable(p.ts, lagTimeout)
				lag := time.Since(p.at)
				lw.mu.Lock()
				if err != nil {
					lw.lost++
				} else {
					lw.lagNs = append(lw.lagNs, float64(lag))
				}
				lw.mu.Unlock()
			}
		}(c)
	}
	return lw
}

func (lw *lagWatch) offer(client int, ts int64) {
	select {
	case lw.chans[client] <- lagProbe{ts: ts, at: time.Now()}:
	default:
	}
}

func (lw *lagWatch) close() {
	for _, ch := range lw.chans {
		close(ch)
	}
	lw.wg.Wait()
}

// takeLags returns and clears the samples gathered so far.
func (lw *lagWatch) takeLags() []float64 {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	out := lw.lagNs
	lw.lagNs = nil
	return out
}

// workloadImpl is how a workload is built, how many operations per client
// warm it up, and after how many measured operations rss_peak_mb is read:
// an eighth to a quarter of what the reference runner completes in a 20 s
// run, so a system four times slower still gets there.
type workloadImpl struct {
	build   func(seed int64, dataRoot string, kit *spyKit, fsync bool) (*env, error)
	warmOps int
	rssOps  int64
}

var impls = map[string]workloadImpl{
	wlFaustMem:  {buildFaustMem, warmFaustMem, 20000},
	wlRegTCPWAL: {buildRegTCPWAL, warmRegTCP, 15000},
	wlRegSatWAL: {buildRegSatWAL, warmRegSat, 6000},
	wlKVMix:     {buildKVMix, warmKV, 10000},
}

// buildFaustMem wires two FAUST clients exactly as faust.NewTestService
// does: memory Network, volatile ustor.Server, offline.Hub, default
// faustproto.Config.
func buildFaustMem(seed int64, _ string, kit *spyKit, _ bool) (*env, error) {
	n := faustMemClients
	e := &env{wl: wlFaustMem, n: n, seed: seed, kit: kit}
	e.ring, e.signers = crypto.NewTestKeyring(n, seed)
	var core transport.ServerCore = ustor.NewServer(n)
	if kit != nil {
		core = kit.wrapCore(core)
	}
	nw := transport.NewNetwork(n, core)
	hub := offline.NewHub(n)
	clients := make([]*faustproto.Client, n)
	regs := make([]regClient, n)
	for i := range clients {
		link := nw.ClientLink(i)
		if kit != nil {
			link = kit.wrapLink(link, i)
		}
		clients[i] = faustproto.NewClient(i, e.ring, e.signers[i], link, hub.Endpoint(i),
			faustproto.WithConfig(faustproto.DefaultConfig()))
		clients[i].Start()
		regs[i] = clients[i]
	}
	e.lag = newLagWatch(clients)
	e.addRegWorkers(regs, faustMemValue)
	e.failed = firstFailed(clients)
	var once sync.Once
	e.stop = func() {
		once.Do(func() {
			for _, c := range clients {
				c.Stop()
			}
			e.lag.close() // after Stop: a watcher blocked in WaitStable returns at once
			nw.Stop()
			hub.Stop()
		})
	}
	return e, nil
}

// newDurableEnv starts what the two WAL workloads share: a data directory,
// keys, and a persistent server (decorated when kit is set). e.close()
// releases all of it, so callers hand every later failure to it.
func newDurableEnv(wl string, n int, seed int64, dataRoot string, kit *spyKit, fsync bool) (*env, transport.ServerCore, error) {
	dir, err := os.MkdirTemp(dataRoot, wl+"-")
	if err != nil {
		return nil, nil, err
	}
	e := &env{wl: wl, n: n, seed: seed, kit: kit, dir: dir, stop: func() {}}
	e.ring, e.signers = crypto.NewTestKeyring(n, seed)
	if e.wal, err = openWAL(filepath.Join(dir, "wal"), n, kit, fsync); err != nil {
		e.close()
		return nil, nil, err
	}
	var core transport.ServerCore = e.wal.ps
	if kit != nil {
		core = kit.wrapCore(core)
	}
	return e, core, nil
}

// addUstorClients puts one ustor.Client on each link (decorated when the
// env is) and makes them the env's workers.
func (e *env) addUstorClients(links []transport.Link) {
	clients := make([]*ustor.Client, len(links))
	regs := make([]regClient, len(links))
	for i, link := range links {
		if e.kit != nil {
			link = e.kit.wrapLink(link, i)
		}
		clients[i] = ustor.NewClient(i, e.ring, e.signers[i], link)
		regs[i] = ustorClient{clients[i]}
	}
	e.addRegWorkers(regs, regValue)
	e.failed = firstFailed(clients)
}

func buildRegTCPWAL(seed int64, dataRoot string, kit *spyKit, fsync bool) (*env, error) {
	e, core, err := newDurableEnv(wlRegTCPWAL, regTCPClients, seed, dataRoot, kit, fsync)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	srv := transport.ServeTCP(ln, core, transport.WithVerifyKeyring(e.ring))
	var links []transport.Link
	e.stop = func() { // every step is idempotent
		for _, l := range links {
			_ = l.Close()
		}
		srv.Stop()
	}
	for i := 0; i < e.n; i++ {
		link, err := transport.DialTCP(srv.Addr().String(), i)
		if err != nil {
			e.close()
			return nil, err
		}
		links = append(links, link)
	}
	e.addUstorClients(links)
	return e, nil
}

func buildRegSatWAL(seed int64, dataRoot string, kit *spyKit, fsync bool) (*env, error) {
	e, core, err := newDurableEnv(wlRegSatWAL, regSatClients, seed, dataRoot, kit, fsync)
	if err != nil {
		return nil, err
	}
	nw := transport.NewNetwork(e.n, core, transport.WithVerifier(e.ring), transport.WithMaxBatch(transport.DefaultMaxBatch))
	e.stop = nw.Stop
	links := make([]transport.Link, e.n)
	for i := range links {
		links[i] = nw.ClientLink(i)
	}
	e.addUstorClients(links)
	return e, nil
}
