// Faust-bench regenerates the paper-level experiments (E5-E14) and prints
// one table per experiment. Unlike the testing.B benchmarks in
// bench_test.go (micro-level, statistics via the Go tooling), this harness
// prints the shaped tables the reproduction is judged against: who wins,
// by what factor, where the crossovers are. How fast the system itself is
// — durability, batching, the KV layer — is measured by benchmark/, not
// here; the experiments that used to (E15-E22) are retired, their verdicts
// kept in README.md and BENCH_kv.json.
//
// Run all experiments:
//
//	go run ./cmd/faust-bench
//
// Run a subset:
//
//	go run ./cmd/faust-bench -run rounds,msgsize,waitfree
//
// Machine-readable output: -json <file> appends one JSON record per
// measured row, {"experiment","n","ns_per_op","bytes_per_op",
// "allocs_per_op"} plus an optional {"value","unit"} pair for non-latency
// metrics. Every experiment emits records.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"faust/internal/byzantine"
	"faust/internal/crypto"
	"faust/internal/faustproto"
	"faust/internal/lockstep"
	"faust/internal/offline"
	"faust/internal/transport"
	"faust/internal/trusted"
	"faust/internal/ustor"
	"faust/internal/wire"
	"faust/internal/workload"
)

type experiment struct {
	name string
	desc string
	run  func()
}

// benchResult is one machine-readable measurement row, written by -json.
// Timing experiments fill ns_per_op (plus the alloc columns when they go
// through measured); experiments whose headline metric is not a latency
// (message counts, wire bytes, throughput) carry it in value/unit so the
// schema stays stable across PRs.
type benchResult struct {
	Experiment  string  `json:"experiment"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Value       float64 `json:"value,omitempty"`
	Unit        string  `json:"unit,omitempty"`
}

// results collects every measured row of the run; experiments append via
// measured, recordNs or recordValue — every experiment emits at least
// one row.
var results []benchResult

// recordNs appends a plain latency row (no allocation accounting).
func recordNs(experiment string, n int, nsPerOp float64) {
	results = append(results, benchResult{Experiment: experiment, N: n, NsPerOp: nsPerOp})
}

// recordValue appends a non-latency metric row.
func recordValue(experiment string, n int, value float64, unit string) {
	results = append(results, benchResult{Experiment: experiment, N: n, Value: value, Unit: unit})
}

// measured times f over ops operations and records wall time plus heap
// allocation per operation (process-wide, like testing.B -benchmem). The
// duration is returned for the human-readable tables.
func measured(experiment string, n, ops int, f func()) time.Duration {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	f()
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	results = append(results, benchResult{
		Experiment:  experiment,
		N:           n,
		NsPerOp:     float64(d.Nanoseconds()) / float64(ops),
		BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops),
		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(ops),
	})
	return d
}

// writeJSON appends the collected rows to path, one JSON object per line.
func writeJSON(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range results {
		if err := enc.Encode(r); err != nil {
			_ = f.Close()
			return err
		}
	}
	return f.Close()
}

func main() {
	runFlag := flag.String("run", "", "comma-separated experiment names (default: all)")
	jsonFlag := flag.String("json", "", "append machine-readable results to this file (one JSON record per row)")
	flag.Parse()

	experiments := []experiment{
		{"rounds", "E5: message rounds per operation (paper: exactly one)", expRounds},
		{"msgsize", "E6: message size vs number of clients (paper: O(n))", expMsgSize},
		{"latency", "E7: operation latency with a correct server (wait-free path)", expLatency},
		{"waitfree", "E8: USTOR vs lock-step baseline with a crashed writer", expWaitFree},
		{"contention", "E8b: throughput under contention, USTOR vs lock-step", expContention},
		{"detection", "E11: fork-detection latency vs probe timeout", expDetection},
		{"stability", "E13: stability latency, online (dummy reads) vs offline (probes)", expStability},
		{"overhead", "E14: throughput of trusted vs USTOR vs FAUST vs lock-step", expOverhead},
		{"crypto", "E12: cryptographic cost per operation", expCrypto},
	}

	want := map[string]bool{}
	if *runFlag != "" {
		for _, name := range strings.Split(*runFlag, ",") {
			want[strings.TrimSpace(name)] = true
		}
	}
	for _, e := range experiments {
		if len(want) > 0 && !want[e.name] {
			continue
		}
		fmt.Printf("\n=== %s — %s ===\n", e.name, e.desc)
		e.run()
	}
	fmt.Println()
	if *jsonFlag != "" {
		if err := writeJSON(*jsonFlag); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %d benchmark records to %s\n", len(results), *jsonFlag)
	}
}

// expRounds counts messages per operation: the paper claims a single
// round (SUBMIT -> REPLY) plus an asynchronous COMMIT.
func expRounds() {
	const n, ops = 4, 200
	nw, clients := ustorCluster(n, transport.WithMetrics())
	runWorkload(clients, workload.New(n, workload.Config{ReadFraction: 0.5, ValueSize: 64, Seed: 1}), ops)
	st := nw.Stats()
	nw.Stop()
	total := int64(n * ops)
	fmt.Printf("%-28s %10s %14s %12s\n", "metric", "count", "per operation", "paper")
	fmt.Printf("%-28s %10d %14.3f %12s\n", "server->client messages", st.ServerToClientMsgs,
		float64(st.ServerToClientMsgs)/float64(total), "1.000")
	fmt.Printf("%-28s %10d %14.3f %12s\n", "client->server messages", st.ClientToServerMsgs,
		float64(st.ClientToServerMsgs)/float64(total), "2.000 (SUBMIT+COMMIT)")
	recordValue("rounds/server-to-client", n, float64(st.ServerToClientMsgs)/float64(total), "msgs/op")
	recordValue("rounds/client-to-server", n, float64(st.ClientToServerMsgs)/float64(total), "msgs/op")
}

// ustorCluster wires n USTOR clients to a correct server over the
// in-memory network.
func ustorCluster(n int, opts ...transport.Option) (*transport.Network, []*ustor.Client) {
	ring, signers := crypto.NewTestKeyring(n, 20240610)
	nw := transport.NewNetwork(n, ustor.NewServer(n), opts...)
	clients := make([]*ustor.Client, n)
	for i := range clients {
		clients[i] = ustor.NewClient(i, ring, signers[i], nw.ClientLink(i))
	}
	return nw, clients
}

// runWorkload drives opsPer generated operations per client, one
// goroutine per client, and exits on the first error.
func runWorkload(clients []*ustor.Client, w *workload.Workload, opsPer int) {
	var wg sync.WaitGroup
	for c, cl := range clients {
		wg.Add(1)
		go func(cl *ustor.Client, stream *workload.Stream) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				var err error
				if op := stream.Next(); op.IsWrite {
					err = cl.Write(op.Value)
				} else {
					_, err = cl.Read(op.Reg)
				}
				if err != nil {
					fail(err)
				}
			}
		}(cl, w.Stream(c))
	}
	wg.Wait()
}

// expMsgSize measures encoded message sizes as n grows; the paper claims
// O(n) communication overhead per request.
func expMsgSize() {
	fmt.Printf("%-6s %14s %14s %14s %16s\n", "n", "avg c->s B", "avg s->c B", "total B/op", "(total/op)/n")
	type row struct {
		n     int
		ratio float64
	}
	var rows []row
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		const opsPer = 20
		nw, clients := ustorCluster(n, transport.WithMetrics())
		runWorkload(clients, workload.New(n, workload.Config{ReadFraction: 0.5, ValueSize: 64, Seed: 2}), opsPer)
		st := nw.Stats()
		nw.Stop()
		ops := float64(n * opsPer)
		cs := float64(st.ClientToServerBytes) / float64(st.ClientToServerMsgs)
		sc := float64(st.ServerToClientBytes) / float64(st.ServerToClientMsgs)
		perOp := float64(st.ClientToServerBytes+st.ServerToClientBytes) / ops
		rows = append(rows, row{n, perOp / float64(n)})
		recordValue("msgsize/total", n, perOp, "bytes/op")
		fmt.Printf("%-6d %14.1f %14.1f %14.1f %16.1f\n", n, cs, sc, perOp, perOp/float64(n))
	}
	first, last := rows[0], rows[len(rows)-1]
	fmt.Printf("linearity check: (bytes/op)/n at n=%d is %.1f, at n=%d is %.1f — flat ratio indicates O(n)\n",
		first.n, first.ratio, last.n, last.ratio)
}

// expLatency measures operation latency against a correct server.
func expLatency() {
	fmt.Printf("%-6s %12s %12s\n", "n", "write us/op", "read us/op")
	for _, n := range []int{2, 4, 8, 16} {
		nw, clients := ustorCluster(n)
		const ops = 300
		writeLat := measured("latency/write", n, ops, func() {
			for i := 0; i < ops; i++ {
				if err := clients[0].Write([]byte(fmt.Sprintf("v%d", i))); err != nil {
					fail(err)
				}
			}
		})
		readLat := measured("latency/read", n, ops, func() {
			for i := 0; i < ops; i++ {
				if _, err := clients[0].Read((i % (n - 1)) + 1); err != nil {
					fail(err)
				}
			}
		})
		nw.Stop()
		fmt.Printf("%-6d %12.1f %12.1f\n", n,
			float64(writeLat.Microseconds())/ops, float64(readLat.Microseconds())/ops)
	}
}

// expWaitFree is the paper's headline: with a writer crashed between
// SUBMIT and COMMIT, USTOR reads finish; lock-step reads block forever.
func expWaitFree() {
	const n = 3
	ring, signers := crypto.NewTestKeyring(n, 3)

	// USTOR: crash client 0 mid-operation, then measure client 1 reads.
	usrv := ustor.NewServer(n)
	unet := transport.NewNetwork(n, usrv)
	link0 := unet.ClientLink(0)
	sigma := signers[0].Sign(crypto.DomainSubmit, wire.SubmitPayload(wire.OpWrite, 0, 1, nil))
	delta := signers[0].Sign(crypto.DomainData, wire.DataPayload(1, crypto.Hash([]byte("w"))))
	_ = link0.Send(&wire.Submit{T: 1, Inv: wire.Invocation{Client: 0, Op: wire.OpWrite, Reg: 0, SubmitSig: sigma}, Value: []byte("w"), DataSig: delta})
	_, _ = link0.Recv() // REPLY consumed; COMMIT never sent: client 0 is dead
	c1 := ustor.NewClient(1, ring, signers[1], unet.ClientLink(1))
	const reads = 200
	start := time.Now()
	for i := 0; i < reads; i++ {
		if _, err := c1.Read(0); err != nil {
			fail(err)
		}
	}
	ustorLat := time.Since(start) / reads
	unet.Stop()

	// Lock-step: same crash; a single read blocks until timeout.
	lsrv := lockstep.NewServer(n)
	lnet := transport.NewNetwork(n, lsrv)
	lc0 := lockstep.NewClient(0, ring, signers[0], lnet.ClientLink(0))
	lc1 := lockstep.NewClient(1, ring, signers[1], lnet.ClientLink(1))
	if err := lc0.WriteCrashBeforeCommit([]byte("w")); err != nil {
		fail(err)
	}
	done := make(chan struct{})
	go func() {
		_, _ = lc1.Read(0)
		close(done)
	}()
	const patience = 2 * time.Second
	var lockstepResult string
	select {
	case <-done:
		lockstepResult = "completed (unexpected!)"
	case <-time.After(patience):
		lockstepResult = fmt.Sprintf("BLOCKED (> %v, would block forever)", patience)
	}
	lnet.Stop()

	fmt.Printf("%-34s %s\n", "protocol", "read latency with crashed writer")
	fmt.Printf("%-34s %v\n", "USTOR (this paper, wait-free)", ustorLat)
	fmt.Printf("%-34s %s\n", "lock-step (fork-linearizable)", lockstepResult)
	recordNs("waitfree/ustor-read-crashed-writer", n, float64(ustorLat.Nanoseconds()))
}

// expContention compares throughput with all clients active: lock-step
// serializes globally, USTOR does not wait for other clients.
func expContention() {
	const n, opsPer = 4, 150
	ring, signers := crypto.NewTestKeyring(n, 4)

	runUstor := func() time.Duration {
		net, clients := ustorCluster(n)
		defer net.Stop()
		start := time.Now()
		done := make(chan error, n)
		for c := 0; c < n; c++ {
			go func(c int) {
				for i := 0; i < opsPer; i++ {
					if err := clients[c].Write([]byte(fmt.Sprintf("c%d-%d", c, i))); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}(c)
		}
		for c := 0; c < n; c++ {
			if err := <-done; err != nil {
				fail(err)
			}
		}
		return time.Since(start)
	}
	runLockstep := func() time.Duration {
		srv := lockstep.NewServer(n)
		net := transport.NewNetwork(n, srv)
		defer net.Stop()
		clients := make([]*lockstep.Client, n)
		for i := range clients {
			clients[i] = lockstep.NewClient(i, ring, signers[i], net.ClientLink(i))
		}
		start := time.Now()
		done := make(chan error, n)
		for c := 0; c < n; c++ {
			go func(c int) {
				for i := 0; i < opsPer; i++ {
					if err := clients[c].Write([]byte(fmt.Sprintf("c%d-%d", c, i))); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}(c)
		}
		for c := 0; c < n; c++ {
			if err := <-done; err != nil {
				fail(err)
			}
		}
		return time.Since(start)
	}

	u := runUstor()
	l := runLockstep()
	total := n * opsPer
	fmt.Printf("%-34s %12s %14s\n", "protocol", "total time", "ops/sec")
	fmt.Printf("%-34s %12v %14.0f\n", "USTOR", u.Round(time.Millisecond), float64(total)/u.Seconds())
	fmt.Printf("%-34s %12v %14.0f\n", "lock-step", l.Round(time.Millisecond), float64(total)/l.Seconds())
	recordNs("contention/ustor", n, float64(u.Nanoseconds())/float64(total))
	recordNs("contention/lockstep", n, float64(l.Nanoseconds())/float64(total))
}

// expDetection measures time from the fork becoming material to all
// clients outputting fail, as a function of the probe timeout.
func expDetection() {
	fmt.Printf("%-16s %18s\n", "probe timeout", "detection latency")
	for _, probe := range []time.Duration{20 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond} {
		const n = 2
		server, err := byzantine.NewForkingServer(n, [][]int{{0}, {1}})
		if err != nil {
			fail(err)
		}
		ring, signers := crypto.NewTestKeyring(n, 5)
		net := transport.NewNetwork(n, server)
		hub := offline.NewHub(n)
		cfg := faustproto.Config{ProbeTimeout: probe, PollInterval: probe / 4, DisableDummyReads: true}
		clients := make([]*faustproto.Client, n)
		for i := 0; i < n; i++ {
			clients[i] = faustproto.NewClient(i, ring, signers[i], net.ClientLink(i), hub.Endpoint(i), faustproto.WithConfig(cfg))
			clients[i].Start()
		}
		if _, err := clients[0].Write([]byte("a")); err != nil {
			fail(err)
		}
		if _, err := clients[1].Write([]byte("b")); err != nil {
			fail(err)
		}
		start := time.Now()
		for _, c := range clients {
			if err := c.WaitFail(30 * time.Second); err != nil {
				fail(err)
			}
		}
		lat := time.Since(start)
		for _, c := range clients {
			c.Stop()
		}
		net.Stop()
		hub.Stop()
		recordNs(fmt.Sprintf("detection/probe=%v", probe), n, float64(lat.Nanoseconds()))
		fmt.Printf("%-16v %18v\n", probe, lat.Round(time.Millisecond))
	}
}

// expStability measures time from an operation's completion to its
// stability w.r.t. all clients, via the online path (dummy reads through
// the live server) and the offline path (server crashed; PROBE/VERSION).
func expStability() {
	const n = 3
	measure := func(core transport.ServerCore, dummyReads bool, preOps func(cl []*faustproto.Client)) time.Duration {
		ring, signers := crypto.NewTestKeyring(n, 6)
		net := transport.NewNetwork(n, core)
		hub := offline.NewHub(n)
		cfg := faustproto.Config{
			ProbeTimeout:      40 * time.Millisecond,
			PollInterval:      10 * time.Millisecond,
			DisableDummyReads: !dummyReads,
		}
		clients := make([]*faustproto.Client, n)
		for i := 0; i < n; i++ {
			clients[i] = faustproto.NewClient(i, ring, signers[i], net.ClientLink(i), hub.Endpoint(i), faustproto.WithConfig(cfg))
			clients[i].Start()
		}
		defer func() {
			for _, c := range clients {
				c.Stop()
			}
			net.Stop()
			hub.Stop()
		}()
		if preOps != nil {
			preOps(clients)
		}
		ts, err := clients[0].Write([]byte("measure-me"))
		if err != nil {
			fail(err)
		}
		start := time.Now()
		if err := clients[0].WaitStable(ts, 30*time.Second); err != nil {
			fail(err)
		}
		return time.Since(start)
	}

	online := measure(ustor.NewServer(n), true, nil)
	// Offline path: the server crashes right after the value propagates.
	crash := byzantine.NewCrashServer(n, 4)
	offlinePath := measure(crash, false, func(cl []*faustproto.Client) {
		if _, _, err := cl[1].Read(0); err != nil {
			fail(err)
		}
		if _, _, err := cl[2].Read(0); err != nil {
			fail(err)
		}
	})
	_ = offlinePath

	fmt.Printf("%-44s %14s\n", "path", "latency")
	fmt.Printf("%-44s %14v\n", "online (dummy reads via live server)", online.Round(time.Millisecond))
	fmt.Printf("%-44s %14v\n", "offline (server crashed; PROBE/VERSION)", offlinePath.Round(time.Millisecond))
	recordNs("stability/online", n, float64(online.Nanoseconds()))
	recordNs("stability/offline", n, float64(offlinePath.Nanoseconds()))
}

// expOverhead compares throughput across the protocol stack.
func expOverhead() {
	const n, opsPer = 4, 100
	ring, signers := crypto.NewTestKeyring(n, 8)

	bench := func(run func(c, i int) error) float64 {
		start := time.Now()
		done := make(chan error, n)
		for c := 0; c < n; c++ {
			go func(c int) {
				for i := 0; i < opsPer; i++ {
					if err := run(c, i); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}(c)
		}
		for c := 0; c < n; c++ {
			if err := <-done; err != nil {
				fail(err)
			}
		}
		return float64(n*opsPer) / time.Since(start).Seconds()
	}

	// Trusted.
	tnet := transport.NewNetwork(n, trusted.NewServer(n))
	tclients := make([]*trusted.Client, n)
	for i := range tclients {
		tclients[i] = trusted.NewClient(i, n, tnet.ClientLink(i))
	}
	tOps := bench(func(c, i int) error { return tclients[c].Write([]byte(fmt.Sprintf("c%d-%d", c, i))) })
	tnet.Stop()

	// USTOR.
	unet, uclients := ustorCluster(n)
	uOps := bench(func(c, i int) error { return uclients[c].Write([]byte(fmt.Sprintf("c%d-%d", c, i))) })
	unet.Stop()

	// FAUST (full stack with background machinery).
	fnet := transport.NewNetwork(n, ustor.NewServer(n))
	hub := offline.NewHub(n)
	cfg := faustproto.Config{ProbeTimeout: 100 * time.Millisecond, PollInterval: 25 * time.Millisecond}
	fclients := make([]*faustproto.Client, n)
	for i := range fclients {
		fclients[i] = faustproto.NewClient(i, ring, signers[i], fnet.ClientLink(i), hub.Endpoint(i), faustproto.WithConfig(cfg))
		fclients[i].Start()
	}
	fOps := bench(func(c, i int) error {
		_, err := fclients[c].Write([]byte(fmt.Sprintf("c%d-%d", c, i)))
		return err
	})
	for _, c := range fclients {
		c.Stop()
	}
	fnet.Stop()
	hub.Stop()

	// Lock-step.
	lnet := transport.NewNetwork(n, lockstep.NewServer(n))
	lclients := make([]*lockstep.Client, n)
	for i := range lclients {
		lclients[i] = lockstep.NewClient(i, ring, signers[i], lnet.ClientLink(i))
	}
	lOps := bench(func(c, i int) error { return lclients[c].Write([]byte(fmt.Sprintf("c%d-%d", c, i))) })
	lnet.Stop()

	fmt.Printf("%-34s %14s %12s\n", "protocol", "writes/sec", "vs trusted")
	fmt.Printf("%-34s %14.0f %12s\n", "trusted (no crypto)", tOps, "1.00x")
	fmt.Printf("%-34s %14.0f %11.2fx\n", "USTOR", uOps, tOps/uOps)
	fmt.Printf("%-34s %14.0f %11.2fx\n", "FAUST (USTOR + detection)", fOps, tOps/fOps)
	fmt.Printf("%-34s %14.0f %11.2fx\n", "lock-step (fork-linearizable)", lOps, tOps/lOps)
	recordValue("overhead/trusted", n, tOps, "ops/sec")
	recordValue("overhead/ustor", n, uOps, "ops/sec")
	recordValue("overhead/faust", n, fOps, "ops/sec")
	recordValue("overhead/lockstep", n, lOps, "ops/sec")
}

// expCrypto reports the cost of the cryptographic primitives. An
// operation is 2 Ed25519 signatures by the client (SignPair: one covers
// SUBMIT+DATA, one COMMIT+PROOF) and one Ed25519 verification per pair
// root a reply carries that the client has not verified before — the
// second half of a pair costs two hashes.
func expCrypto() {
	ring, signers := crypto.NewTestKeyring(2, 9)
	payload := wire.SubmitPayload(wire.OpWrite, 0, 1, nil)

	const iters = 500
	start := time.Now()
	var sig []byte
	for i := 0; i < iters; i++ {
		sig = signers[0].Sign(crypto.DomainSubmit, payload)
	}
	signT := time.Since(start) / iters

	start = time.Now()
	for i := 0; i < iters; i++ {
		if !ring.Verify(0, sig, crypto.DomainSubmit, payload) {
			fail(fmt.Errorf("verification failed"))
		}
	}
	verifyT := time.Since(start) / iters

	start = time.Now()
	buf := make([]byte, 64)
	for i := 0; i < iters; i++ {
		_ = crypto.Hash(buf)
	}
	hashT := time.Since(start) / iters

	fmt.Printf("%-24s %12s\n", "primitive", "time")
	fmt.Printf("%-24s %12v\n", "Ed25519 sign", signT)
	fmt.Printf("%-24s %12v\n", "Ed25519 verify", verifyT)
	fmt.Printf("%-24s %12v\n", "SHA-256 (64 B)", hashT)
	recordNs("crypto/sign", 2, float64(signT.Nanoseconds()))
	recordNs("crypto/verify", 2, float64(verifyT.Nanoseconds()))
	recordNs("crypto/hash-64B", 2, float64(hashT.Nanoseconds()))
	fmt.Printf("per op: 2 signs (SignPair: SUBMIT+DATA, COMMIT+PROOF) ~ %v; per reply: 1 verify per fresh pair root ~ %v each\n",
		2*signT, verifyT)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "faust-bench: %v\n", err)
	os.Exit(1)
}
