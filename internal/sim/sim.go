// Package sim is a deterministic simulator of the whole register stack:
// the real USTOR and FAUST clients on a clock.Fake, the real dispatcher
// stepped through transport.Stepped, and a store.Persistent server over
// the real FileBackend on a store.MemDisk (or one of the
// internal/byzantine servers), joined by server links and offline
// channels the simulator owns.
//
// Between two decisions every goroutine of the stack is parked. The seed
// then picks one enabled event — run a batch of up to three link heads,
// deliver a reply or an offline message, start an operation, advance the
// clock one poll interval — and the configured faults fire at their
// decision steps. The same Config replays the same decisions; the oracle
// that checks the paper's guarantees on every run lives in sim_test.go.
package sim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"faust/internal/byzantine"
	"faust/internal/clock"
	"faust/internal/crypto"
	"faust/internal/faustproto"
	"faust/internal/history"
	"faust/internal/offline"
	"faust/internal/store"
	"faust/internal/transport"
	"faust/internal/ustor"
	"faust/internal/wire"
)

const (
	keySeed       = 20240610
	poll          = 10 * time.Millisecond // FAUST dummy-read and probe cadence
	maxBatch      = 3                     // link heads one batch may take
	maxSteps      = 6000                  // decisions before a run gives up settling
	snapshotEvery = 7                     // WAL records between the honest server's snapshots
)

// walOpts is the honest server's WAL: group commit with syncs, so a crash
// can strike a write or a sync.
var walOpts = store.FileOptions{Fsync: true, GroupCommit: true}

// faustCfg probes a peer after three silent poll intervals.
var faustCfg = faustproto.Config{ProbeTimeout: 3 * poll, PollInterval: poll}

// Fault kinds. A server kind replaces the honest store.Persistent server
// for the whole run; the others fire at decision step At.
const (
	ClientCrash = "client-crash"     // client Client crashes
	ForkServer  = "fork"             // ForkingServer: branches [0, Client) and [Client, N)
	TamperDrop  = "tamper-drop"      // ReplyTamperServer silences client Client's At-th reply
	TamperBreak = "tamper-corrupt"   // ... lists Client's own operation as concurrent in it
	CrashServer = "crash"            // CrashServer: silent after serving At SUBMITs
	DropCommit  = "drop-commit"      // DropCommitServer
	BatchKept   = "batch-crash-kept" // the first WAL sync from step At on fails after it lands
	BatchLost   = "batch-crash-lost" // the first WAL write from step At on fails before it lands
)

// Fault is one injected fault.
type Fault struct {
	Kind   string
	At     int
	Client int
}

// Config describes one run.
type Config struct {
	N         int   // clients
	Ops       int   // user operations per client
	Seed      int64 // picks every decision
	Faust     bool  // FAUST clients; plain USTOR clients otherwise
	Piggyback bool  // USTOR clients defer each COMMIT onto the next SUBMIT
	Faults    []Fault
}

// Result is what a run leaves for the oracle.
type Result struct {
	History history.History
	Ring    *crypto.Keyring
	// Fails[i] is client i's fail_i reason, nil if it never failed. The
	// operations a client starts after fail_i stay out of History;
	// AfterFail[i] counts those that returned anyway, Halted[i] those
	// that returned faustproto.ErrHalted.
	Fails     []error
	AfterFail []int
	Halted    []int
	Crashed   []bool
	Cuts      [][][]int64 // Cuts[i]: every stable_i(W), in order
	// FirstCommit[j][i] counts the SUBMITs client i had sent when client
	// j sent its first COMMIT; nil while j has sent none.
	FirstCommit [][]int64
	Lost        int  // server restarts that recovered less than the server received
	Settled     bool // the run ended before maxSteps (see settled)
	Steps       int
	Fingerprint uint64 // hash of every decision
	// Recovery is the first restart that broke the WAL's promise: after a
	// batch-crash-kept crash, or the close and reopen that end a settled
	// run, a recovered state not bit-identical to the applied one.
	Recovery error
	Disk     *store.MemDisk // the honest server's disk; nil without one
}

// event is one decision: a batch led by client a ('b'), a reply to a
// ('r'), an offline message from a to b ('o'), an operation of a ('s'),
// or a clock tick ('t').
type event struct {
	kind byte
	a, b int
}

type sim struct {
	cfg  Config
	rng  *rand.Rand
	clk  *clock.Fake
	rec  *history.Recorder
	hub  *transport.Stepped
	off  *offline.Hub // delivers what the endpoints queued
	cs   []*client
	buf  []byte
	hash uint64
	step int
	ops  sync.WaitGroup // user operations' goroutines

	// The honest server, nil when a byzantine server replaces it: ps on
	// its disk, and a shadow that applies every message ps receives and
	// never crashes, so a restart that recovers less lost a message.
	ps     *store.Persistent
	disk   *store.MemDisk
	shadow *ustor.Server
	armed  string // the batch-crash kind waiting to strike the disk
	struck string // the kind that struck inside the batch being run

	mu  sync.Mutex // guards res and the clients' queues and flags
	res Result
}

// client is the simulator's side of one client.
type client struct {
	id    int
	fc    *faustproto.Client // nil for a plain USTOR client
	write func([]byte) (int64, error)
	read  func(int) ([]byte, int64, error)
	link  *link
	ep    *endpoint

	toServer []wire.Message   // sent, not yet admitted
	toClient []wire.Message   // replied, not yet delivered
	offline  [][]wire.Message // [to]: sent, not yet delivered
	submits  int64
	awaiting bool // a SUBMIT waits for its reply
	stuck    bool // the server swallowed that SUBMIT
	busy     bool // a user operation runs
	left     int  // user operations not yet started
	lastTS   int64
}

// Run executes one seeded simulation. It pins GOMAXPROCS to 1 while it
// runs, so a goroutine the scheduler wakes runs before the next decision.
func Run(cfg Config) Result {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := newSim(cfg)
	for ; s.step < maxSteps; s.step++ {
		s.quiesce()
		s.inject()
		evs := s.enabled()
		if s.res.Settled = s.settled(evs); s.res.Settled {
			break
		}
		e := evs[s.rng.Intn(len(evs))]
		s.mix(int(e.kind), e.a, e.b)
		s.apply(e)
	}
	s.quiesce()
	if s.ps != nil && s.res.Settled {
		if err := s.ps.Close(); err != nil {
			s.res.Recovery = fmt.Errorf("closing the server: %w", err)
		}
		s.reopen(true, "the final close and reopen")
	}
	s.mu.Lock()
	res := s.res
	s.mu.Unlock()
	res.History, res.Steps, res.Fingerprint, res.Disk = s.rec.History(), s.step, s.hash, s.disk
	for _, c := range s.cs {
		s.halt(c)
	}
	s.ops.Wait()
	return res
}

func newSim(cfg Config) *sim {
	n := cfg.N
	ring, signers := crypto.NewTestKeyring(n, keySeed)
	s := &sim{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), clk: clock.NewFake(),
		rec: history.NewRecorder(n), off: offline.NewHub(n), buf: make([]byte, 1<<16),
		res: Result{Ring: ring, Fails: make([]error, n), AfterFail: make([]int, n), Halted: make([]int, n),
			Crashed: make([]bool, n), Cuts: make([][][]int64, n), FirstCommit: make([][]int64, n)}}
	s.hub = transport.NewStepped(s.server(), s.deliver)
	ctx := context.Background()
	for i := 0; i < n; i++ {
		c := &client{id: i, left: cfg.Ops, offline: make([][]wire.Message, n),
			link: &link{s: s, id: i, in: make(chan wire.Message, 1), done: make(chan struct{})},
			ep:   &endpoint{Endpoint: s.off.Endpoint(i), s: s}}
		s.cs = append(s.cs, c)
		onFail := func(err error) {
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.res.Fails[i] == nil {
				s.res.Fails[i] = err
			}
		}
		if !cfg.Faust {
			opts := []ustor.ClientOption{ustor.WithFailHandler(onFail)}
			if cfg.Piggyback {
				opts = append(opts, ustor.WithCommitPiggyback())
			}
			us := ustor.NewClient(i, ring, signers[i], c.link, opts...)
			c.write = func(x []byte) (int64, error) { r, err := us.WriteX(ctx, x); return r.Timestamp, err }
			c.read = func(j int) ([]byte, int64, error) { r, err := us.ReadX(ctx, j); return r.Value, r.Timestamp, err }
			continue
		}
		c.fc = faustproto.NewClient(i, ring, signers[i], c.link, c.ep,
			faustproto.WithConfig(faustCfg), faustproto.WithClock(s.clk),
			faustproto.WithFailHandler(onFail),
			faustproto.WithStableHandler(func(w []int64) {
				s.mu.Lock()
				s.res.Cuts[i] = append(s.res.Cuts[i], w)
				s.mu.Unlock()
			}))
		c.write, c.read = c.fc.Write, c.fc.Read
		c.fc.Start()
	}
	return s
}

// server builds the run's server core: the byzantine server a fault
// names, or an honest ustor.Server behind store.Persistent.
func (s *sim) server() transport.ServerCore {
	n := s.cfg.N
	for _, f := range s.cfg.Faults {
		switch f.Kind {
		case ForkServer:
			ids := make([]int, n)
			for i := range ids {
				ids[i] = i
			}
			srv, err := byzantine.NewForkingServer(n, [][]int{ids[:f.Client], ids[f.Client:]})
			if err != nil {
				panic(err)
			}
			return srv
		case TamperDrop, TamperBreak:
			return &byzantine.ReplyTamperServer{Inner: ustor.NewServer(n), Tamper: tamper(f)}
		case CrashServer:
			return byzantine.NewCrashServer(n, f.At)
		case DropCommit:
			return byzantine.NewDropCommitServer(n)
		}
	}
	if s.disk == nil {
		s.disk = store.NewMemDisk()
		s.disk.SetFault(s.fault)
		s.shadow = ustor.NewServer(n)
	}
	b, err := s.disk.OpenFile("wal", walOpts)
	if err != nil {
		panic(err)
	}
	if s.ps, err = store.Open(ustor.NewServer(n), b, store.Options{SnapshotEvery: snapshotEvery}); err != nil {
		panic(err)
	}
	return s.ps
}

// fault is the disk's fault hook: the armed crash strikes the first WAL
// write (batch-crash-lost) or WAL sync (batch-crash-kept) on its way.
func (s *sim) fault(op, path string) (after bool, err error) {
	if !strings.HasPrefix(filepath.Base(path), "wal-") ||
		!(s.armed == BatchLost && op == "write" || s.armed == BatchKept && op == "sync") {
		return false, nil
	}
	s.struck, s.armed = s.armed, ""
	return s.struck == BatchKept, errors.New("sim: server crashed inside the batch")
}

// tamper silences or corrupts client f.Client's f.At-th reply.
func tamper(f Fault) func(int, *wire.Reply) *wire.Reply {
	seen := 0
	return func(from int, r *wire.Reply) *wire.Reply {
		if from != f.Client {
			return r
		}
		if seen++; seen != f.At {
			return r
		}
		if f.Kind == TamperDrop {
			return nil
		}
		r.L = append(r.L, wire.Invocation{Client: from, Op: wire.OpRead, Reg: from})
		return r
	}
}

// quiesce yields until every other goroutine is blocked. Go 1.22 has no
// testing/synctest, so it reads the states in a full goroutine dump: the
// caller's own goroutine is the one running, and none may be runnable or
// in a system call.
func (s *sim) quiesce() {
	for {
		runtime.Gosched()
		n := runtime.Stack(s.buf, true)
		if n == len(s.buf) {
			s.buf = make([]byte, 2*len(s.buf))
			continue
		}
		d := s.buf[:n]
		if bytes.Count(d, []byte(" [running")) == 1 && !bytes.Contains(d, []byte(" [runnable")) &&
			!bytes.Contains(d, []byte(" [syscall")) {
			return
		}
	}
}

// inject fires the faults due at this step.
func (s *sim) inject() {
	for _, f := range s.cfg.Faults {
		switch {
		case f.At != s.step:
		case f.Kind == ClientCrash:
			s.crash(s.cs[f.Client])
		case (f.Kind == BatchKept || f.Kind == BatchLost) && s.ps != nil && s.armed == "":
			s.armed = f.Kind
		}
	}
}

// enabled lists the events that can happen now, in a fixed order.
func (s *sim) enabled() []event {
	s.mu.Lock()
	defer s.mu.Unlock()
	var evs []event
	for i, c := range s.cs {
		if len(c.toServer) > 0 {
			evs = append(evs, event{'b', i, 0})
		}
		if len(c.toClient) > 0 && len(c.link.in) == 0 {
			evs = append(evs, event{'r', i, 0})
		}
		for j, q := range c.offline {
			if len(q) > 0 {
				evs = append(evs, event{'o', i, j})
			}
		}
		// A user operation never starts behind a dummy read's SUBMIT: it
		// would block on the USTOR session lock, out of the scheduler's sight.
		if !s.res.Crashed[i] && c.left > 0 && !c.busy && !c.awaiting {
			evs = append(evs, event{'s', i, 0})
		}
	}
	if s.cfg.Faust {
		evs = append(evs, event{'t', 0, 0})
	}
	return evs
}

// settled reports whether the run is over. USTOR: nothing can happen.
// FAUST: every live client ran all its operations or is stuck behind a
// swallowed SUBMIT, and either all of them failed, or none did and each
// one's cut covers its last operation for every live peer.
func (s *sim) settled(evs []event) bool {
	if !s.cfg.Faust {
		return len(evs) == 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var live []*client
	failed := 0
	for _, c := range s.cs {
		if s.res.Crashed[c.id] {
			continue
		}
		if !c.stuck && (c.left > 0 || c.busy) {
			return false
		}
		live = append(live, c)
		if s.res.Fails[c.id] != nil {
			failed++
		}
	}
	if failed > 0 {
		return failed == len(live)
	}
	for _, c := range live {
		cuts := s.res.Cuts[c.id]
		for _, p := range live {
			if c.lastTS > 0 && (len(cuts) == 0 || cuts[len(cuts)-1][p.id] < c.lastTS) {
				return false
			}
		}
	}
	return true
}

// mix folds one decision into the fingerprint.
func (s *sim) mix(vs ...int) {
	h := fnv.New64a()
	fmt.Fprint(h, s.hash, vs)
	s.hash = h.Sum64()
}

func (s *sim) apply(e event) {
	c := s.cs[e.a]
	switch e.kind {
	case 'b':
		s.batch(c)
	case 'r':
		s.mu.Lock()
		m := c.toClient[0]
		c.toClient = c.toClient[1:]
		c.awaiting = false
		s.mu.Unlock()
		c.link.in <- m
	case 'o':
		s.mu.Lock()
		m := c.offline[e.b][0]
		c.offline[e.b] = c.offline[e.b][1:]
		s.mu.Unlock()
		_ = s.off.Endpoint(e.a).Send(e.b, m) // a crashed recipient drops it; a crashed sender's queues were cleared
	case 's':
		s.start(c)
	case 't':
		s.clk.Advance(poll)
	}
}

// batch admits the head of c's link and up to maxBatch-1 more heads of
// links the seed picks, then steps the hub once.
func (s *sim) batch(c *client) {
	s.mu.Lock()
	var submitters []*client
	for k := s.rng.Intn(maxBatch); ; k-- {
		m := c.toServer[0]
		c.toServer = c.toServer[1:]
		if _, ok := m.(*wire.Submit); ok {
			c.stuck = true // until deliver sees the reply
			submitters = append(submitters, c)
		}
		s.hub.Admit(c.id, m)
		if s.shadow != nil {
			switch m := m.(type) {
			case *wire.Submit:
				s.shadow.HandleSubmit(context.Background(), c.id, m)
			case *wire.Commit:
				s.shadow.HandleCommit(context.Background(), c.id, m)
			}
		}
		var ready []*client
		for _, r := range s.cs {
			if len(r.toServer) > 0 {
				ready = append(ready, r)
			}
		}
		if k == 0 || len(ready) == 0 {
			break
		}
		c = ready[s.rng.Intn(len(ready))]
		s.mix(c.id)
	}
	s.mu.Unlock()
	s.hub.Step(maxBatch)
	if s.struck != "" {
		s.restart(submitters)
	}
}

// deliver is the hub's delivery method: queue replies for the client.
func (s *sim) deliver(to int, msgs []wire.Message) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := s.cs[to]; !s.res.Crashed[to] {
		c.toClient = append(c.toClient, msgs...)
		c.stuck = false
	}
	return nil
}

// restart models a server crash inside the batch just run: its replies
// were withheld, its senders crash, and a new server recovers from the
// disk the crashed one abandoned.
func (s *sim) restart(senders []*client) {
	for _, c := range senders {
		s.crash(c)
	}
	kind := s.struck
	s.struck = ""
	s.reopen(kind == BatchKept, kind)
}

// reopen recovers a new honest server from the disk; a crashed server's
// backend is simply abandoned. When strict, the recovered state must be
// the one the server applied; one short of the shadow's counts as Lost.
func (s *sim) reopen(strict bool, why string) {
	applied := s.ps.ExportState()
	s.hub = transport.NewStepped(s.server(), s.deliver)
	got := s.ps.ExportState()
	if strict && !bytes.Equal(got, applied) && s.res.Recovery == nil {
		s.res.Recovery = fmt.Errorf("step %d: %s recovered a state other than the one the server applied", s.step, why)
	}
	if !bytes.Equal(got, s.shadow.ExportState()) {
		s.res.Lost++
		if err := s.shadow.RestoreState(got); err != nil {
			panic(err)
		}
	}
}

// start invokes c's next user operation on its own goroutine: a write of
// a fresh value or a read of a register the seed picks. After fail_i the
// operation stays out of the history.
func (s *sim) start(c *client) {
	write, reg := s.rng.Intn(2) == 0, s.rng.Intn(s.cfg.N)
	s.mu.Lock()
	c.left--
	c.busy = true
	halted := s.res.Fails[c.id] != nil
	s.mu.Unlock()
	val := []byte(fmt.Sprintf("v%d.%d", c.id, s.cfg.Ops-c.left))
	var p *history.PendingOp
	switch {
	case halted:
	case write:
		p = s.rec.Invoke(c.id, history.OpWrite, c.id, val)
	default:
		p = s.rec.Invoke(c.id, history.OpRead, reg, nil)
	}
	s.ops.Add(1)
	go func() {
		defer s.ops.Done()
		var v []byte
		var ts int64
		var err error
		if write {
			ts, err = c.write(val)
		} else {
			v, ts, err = c.read(reg)
		}
		if err == nil && p != nil {
			p.Complete(v, ts)
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		c.busy = false
		switch {
		case p == nil && errors.Is(err, faustproto.ErrHalted):
			s.res.Halted[c.id]++
		case err != nil:
		case p == nil:
			s.res.AfterFail[c.id]++
		default:
			c.lastTS = ts
		}
	}()
}

// crash stops c for good; what it sent the server stays in the network.
func (s *sim) crash(c *client) {
	s.mu.Lock()
	was := s.res.Crashed[c.id]
	s.res.Crashed[c.id] = true
	c.toClient, c.offline = nil, make([][]wire.Message, len(s.cs))
	for _, p := range s.cs {
		p.offline[c.id] = nil
	}
	s.mu.Unlock()
	if !was {
		s.halt(c)
	}
}

// halt stops c's goroutines.
func (s *sim) halt(c *client) {
	if c.fc != nil {
		c.fc.Stop()
	}
	_ = c.link.Close()
	c.ep.Close()
}

// link is a client's reliable FIFO channel to the server.
type link struct {
	s    *sim
	id   int
	in   chan wire.Message // the one reply being delivered
	done chan struct{}
	once sync.Once
}

func (l *link) Send(m wire.Message) error {
	s := l.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.res.Crashed[l.id] {
		return transport.ErrClosed
	}
	c := s.cs[l.id]
	c.toServer = append(c.toServer, m)
	switch m.(type) {
	case *wire.Submit:
		c.submits++
		c.awaiting = true
	case *wire.Commit:
		if s.res.FirstCommit[l.id] == nil {
			for _, p := range s.cs {
				s.res.FirstCommit[l.id] = append(s.res.FirstCommit[l.id], p.submits)
			}
		}
	}
	return nil
}

func (l *link) Recv() (wire.Message, error) {
	select {
	case m := <-l.in:
		return m, nil
	case <-l.done:
		return nil, transport.ErrClosed
	}
}

func (l *link) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

// endpoint is a client's attachment to the offline channel: an in-memory
// endpoint whose sends wait in the simulator until it delivers them.
type endpoint struct {
	*offline.Endpoint
	s *sim
}

func (e *endpoint) Send(to int, m wire.Message) error {
	s := e.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.res.Crashed[e.ID()] {
		return offline.ErrClosed
	}
	if !s.res.Crashed[to] {
		q := &s.cs[e.ID()].offline[to]
		*q = append(*q, m)
	}
	return nil
}

func (e *endpoint) Broadcast(m wire.Message) error {
	for j := range e.s.cs {
		if j != e.ID() {
			_ = e.Send(j, m)
		}
	}
	return nil
}
