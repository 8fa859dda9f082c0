// Benchmarks reproducing the paper's experiments E5-E14, one benchmark
// (or sub-benchmark) per experiment row. README "The paper's experiments"
// maps each experiment to its benchmark or test, the paper's claim and the
// metric to read; README "Retired experiments" keeps the verdicts of the
// experiments no longer run. Every benchmark fails on a protocol error.
// Run with the standard tooling, e.g.
//
//	go test -run '^$' -bench . -benchmem -count 6 . | tee new.txt
//	benchstat old.txt new.txt
package faust

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
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

// writer is the write path the compared protocols share.
type writer interface{ Write([]byte) error }

// ustorCluster builds a raw USTOR cluster for benchmarking.
func ustorCluster(b *testing.B, n int, opts ...transport.Option) (*transport.Network, []*ustor.Client) {
	b.Helper()
	ring, signers := crypto.NewTestKeyring(n, 1)
	nw := transport.NewNetwork(n, ustor.NewServer(n), opts...)
	clients := make([]*ustor.Client, n)
	for i := 0; i < n; i++ {
		clients[i] = ustor.NewClient(i, ring, signers[i], nw.ClientLink(i))
	}
	b.Cleanup(nw.Stop)
	return nw, clients
}

// lockstepClients builds a lock-step cluster of n clients.
func lockstepClients(b *testing.B, n int) []*lockstep.Client {
	b.Helper()
	ring, signers := crypto.NewTestKeyring(n, 1)
	nw := transport.NewNetwork(n, lockstep.NewServer(n))
	b.Cleanup(nw.Stop)
	clients := make([]*lockstep.Client, n)
	for i := range clients {
		clients[i] = lockstep.NewClient(i, ring, signers[i], nw.ClientLink(i))
	}
	return clients
}

// benchWrites times b.N writes through w and stops the timer, so the
// caller can read the network's counters untimed.
func benchWrites(b *testing.B, w writer) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Write([]byte(fmt.Sprintf("v%d", i))); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

// parallelWrites spreads b.N writes over the clients, each RunParallel
// goroutine taking the next client round-robin.
func parallelWrites[C writer](b *testing.B, clients []C) {
	var next atomic.Int32
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		g := int(next.Add(1) - 1)
		c := clients[g%len(clients)]
		for i := 0; pb.Next(); i++ {
			if err := c.Write([]byte(fmt.Sprintf("g%d-%d", g, i))); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkWriteLatency measures single-client write latency (E7).
func BenchmarkWriteLatency(b *testing.B) {
	for _, n := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			_, clients := ustorCluster(b, n)
			w := workload.New(n, workload.Config{ReadFraction: 0, ValueSize: 64, Seed: 1})
			s := w.Stream(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := clients[0].Write(s.NextWrite().Value); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReadLatency measures single-client read latency (E7).
func BenchmarkReadLatency(b *testing.B) {
	for _, n := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			_, clients := ustorCluster(b, n)
			if err := clients[1].Write([]byte("the-value")); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := clients[0].Read(1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRoundsPerOp reports the one-round claim (E5): one
// server->client message per operation. TestPiggybackHalvesClientMessages
// in internal/ustor asserts the exact counts.
func BenchmarkRoundsPerOp(b *testing.B) {
	nw, clients := ustorCluster(b, 2, transport.WithMetrics())
	benchWrites(b, clients[0])
	st := nw.Stats()
	b.ReportMetric(float64(st.ServerToClientMsgs)/float64(b.N), "rounds/op")
	b.ReportMetric(float64(st.ClientToServerMsgs)/float64(b.N), "msgs-sent/op")
}

// BenchmarkMessageSizeVsN measures the per-operation communication volume
// as n grows (E6): the paper claims O(n) bits per request, so bytes/op
// grows linearly in n.
func BenchmarkMessageSizeVsN(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			nw, clients := ustorCluster(b, n, transport.WithMetrics())
			benchWrites(b, clients[0])
			st := nw.Stats()
			perOp := float64(st.ClientToServerBytes+st.ServerToClientBytes) / float64(b.N)
			b.ReportMetric(perOp, "bytes/op")
			b.ReportMetric(perOp/float64(n), "bytes/op/client")
		})
	}
}

// BenchmarkWaitFreedom measures reads while another client holds a
// submitted-but-uncommitted write (E8): USTOR does not block. The
// lock-step half, which blocks, is internal/lockstep
// TestBlockingOnCrashedWriter.
func BenchmarkWaitFreedom(b *testing.B) {
	const n = 3
	ring, signers := crypto.NewTestKeyring(n, 1)
	nw := transport.NewNetwork(n, ustor.NewServer(n))
	b.Cleanup(nw.Stop)

	// Client 0 crashes mid-operation.
	link0 := nw.ClientLink(0)
	sigma := signers[0].Sign(crypto.DomainSubmit, wire.SubmitPayload(wire.OpWrite, 0, 1, nil))
	delta := signers[0].Sign(crypto.DomainData, wire.DataPayload(1, crypto.Hash([]byte("w"))))
	if err := link0.Send(&wire.Submit{T: 1, Inv: wire.Invocation{Client: 0, Op: wire.OpWrite, Reg: 0, SubmitSig: sigma}, Value: []byte("w"), DataSig: delta}); err != nil {
		b.Fatal(err)
	}
	if _, err := link0.Recv(); err != nil {
		b.Fatal(err)
	}

	c1 := ustor.NewClient(1, ring, signers[1], nw.ClientLink(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c1.Read(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUSTORvsLockstepUnderContention compares write throughput with
// four concurrent writers (E8b): the lock-step baseline serializes
// globally.
func BenchmarkUSTORvsLockstepUnderContention(b *testing.B) {
	const n = 4
	b.Run("ustor", func(b *testing.B) {
		_, clients := ustorCluster(b, n)
		parallelWrites(b, clients)
	})
	b.Run("lockstep", func(b *testing.B) {
		parallelWrites(b, lockstepClients(b, n))
	})
}

// BenchmarkUSTORvsTrusted isolates the price of fail-awareness (E14):
// the trusted baseline without crypto, USTOR, the full FAUST stack and
// the lock-step baseline.
func BenchmarkUSTORvsTrusted(b *testing.B) {
	const n = 2
	b.Run("trusted-write", func(b *testing.B) {
		nw := transport.NewNetwork(n, trusted.NewServer(n))
		b.Cleanup(nw.Stop)
		benchWrites(b, trusted.NewClient(0, n, nw.ClientLink(0)))
	})
	b.Run("ustor-write", func(b *testing.B) {
		_, clients := ustorCluster(b, n)
		benchWrites(b, clients[0])
	})
	b.Run("faust-write", func(b *testing.B) {
		svc := NewTestService(n, 1,
			WithProbeTimeout(time.Second),
			WithPollInterval(250*time.Millisecond))
		b.Cleanup(svc.Close)
		c, err := svc.Client(0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := svc.Client(1); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Write([]byte(fmt.Sprintf("v%d", i))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lockstep-write", func(b *testing.B) {
		benchWrites(b, lockstepClients(b, n)[0])
	})
}

// BenchmarkStabilityLatencyOnline measures write-to-stable time through
// the live server with dummy reads (E13).
func BenchmarkStabilityLatencyOnline(b *testing.B) {
	svc := NewTestService(3, 1,
		WithProbeTimeout(50*time.Millisecond),
		WithPollInterval(10*time.Millisecond))
	b.Cleanup(svc.Close)
	clients := make([]*Client, 3)
	for i := range clients {
		c, err := svc.Client(i)
		if err != nil {
			b.Fatal(err)
		}
		clients[i] = c
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts, err := clients[0].Write([]byte(fmt.Sprintf("v%d", i)))
		if err != nil {
			b.Fatal(err)
		}
		if err := clients[0].WaitStable(ts, 30*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// faustCluster starts n FAUST clients of server over the in-memory
// network and hub, and returns them with a function that stops it all.
func faustCluster(n int, server transport.ServerCore, cfg faustproto.Config) ([]*faustproto.Client, func()) {
	ring, signers := crypto.NewTestKeyring(n, 1)
	nw := transport.NewNetwork(n, server)
	hub := offline.NewHub(n)
	clients := make([]*faustproto.Client, n)
	for j := range clients {
		clients[j] = faustproto.NewClient(j, ring, signers[j], nw.ClientLink(j), hub.Endpoint(j), faustproto.WithConfig(cfg))
		clients[j].Start()
	}
	return clients, func() {
		for _, c := range clients {
			c.Stop()
		}
		nw.Stop()
		hub.Stop()
	}
}

// BenchmarkStabilityLatencyOffline measures the offline PROBE/VERSION
// stability path with a crashed server (E13). Each iteration builds a
// fresh cluster, performs the propagation ops, crashes the server and
// waits for offline stability.
func BenchmarkStabilityLatencyOffline(b *testing.B) {
	const n = 2
	cfg := faustproto.Config{
		ProbeTimeout:      30 * time.Millisecond,
		PollInterval:      10 * time.Millisecond,
		DisableDummyReads: true,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		clients, stop := faustCluster(n, byzantine.NewCrashServer(n, 3), cfg)
		ts, err := clients[0].Write([]byte("x"))
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := clients[1].Read(0); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := clients[0].WaitStableFor(1, ts, 30*time.Second); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		stop()
		b.StartTimer()
	}
}

// BenchmarkDetectionLatency measures the full fork-detection cycle (E11),
// fork materialized -> all clients failed, as the probe timeout grows;
// the poll interval is a quarter of it.
func BenchmarkDetectionLatency(b *testing.B) {
	const n = 2
	for _, probe := range []time.Duration{20 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond} {
		b.Run(fmt.Sprintf("probe=%v", probe), func(b *testing.B) {
			cfg := faustproto.Config{
				ProbeTimeout:      probe,
				PollInterval:      probe / 4,
				DisableDummyReads: true,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				server, err := byzantine.NewForkingServer(n, [][]int{{0}, {1}})
				if err != nil {
					b.Fatal(err)
				}
				clients, stop := faustCluster(n, server, cfg)
				if _, err := clients[0].Write([]byte("a")); err != nil {
					b.Fatal(err)
				}
				if _, err := clients[1].Write([]byte("b")); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, c := range clients {
					if err := c.WaitFail(30 * time.Second); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				stop()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkPiggybackAblation compares the standard protocol (separate
// COMMIT message) against the Section 5 piggyback optimization: identical
// semantics, half the client->server messages.
func BenchmarkPiggybackAblation(b *testing.B) {
	run := func(b *testing.B, opts ...ustor.ClientOption) {
		const n = 2
		ring, signers := crypto.NewTestKeyring(n, 1)
		nw := transport.NewNetwork(n, ustor.NewServer(n), transport.WithMetrics())
		b.Cleanup(nw.Stop)
		benchWrites(b, ustor.NewClient(0, ring, signers[0], nw.ClientLink(0), opts...))
		st := nw.Stats()
		b.ReportMetric(float64(st.ClientToServerMsgs)/float64(b.N), "msgs-sent/op")
		b.ReportMetric(float64(st.ClientToServerBytes+st.ServerToClientBytes)/float64(b.N), "bytes/op")
	}
	b.Run("separate-commit", func(b *testing.B) { run(b) })
	b.Run("piggyback", func(b *testing.B) { run(b, ustor.WithCommitPiggyback()) })
}

// BenchmarkCryptoPerOp measures the primitives dominating USTOR's cost
// (E12). An operation is two Ed25519 signatures by the client (SignPair:
// one covers SUBMIT+DATA, one COMMIT+PROOF) and one verification per
// pair root a reply carries that the client has not verified before.
func BenchmarkCryptoPerOp(b *testing.B) {
	ring, signers := crypto.NewTestKeyring(2, 1)
	payload := wire.SubmitPayload(wire.OpWrite, 0, 1, nil)
	b.Run("sign", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = signers[0].Sign(crypto.DomainSubmit, payload)
		}
	})
	sig := signers[0].Sign(crypto.DomainSubmit, payload)
	b.Run("verify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !ring.Verify(0, sig, crypto.DomainSubmit, payload) {
				b.Fatal("verify failed")
			}
		}
	})
	b.Run("digest-step", func(b *testing.B) {
		d := []byte(nil)
		for i := 0; i < b.N; i++ {
			d = crypto.Hash(d, payload)
		}
	})
}

// TestExperimentTableNamesExist: every benchmark and test that README's
// experiment table names is defined in a test file of this repository.
func TestExperimentTableNamesExist(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "## The paper's experiments\n")
	if !ok {
		t.Fatal(`README has no "The paper's experiments" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	named := regexp.MustCompile(`\b(?:Benchmark|Test)[A-Z]\w*`).FindAllString(section, -1)
	if len(named) == 0 {
		t.Fatal("the experiment table names no benchmark or test")
	}

	funcDecl := regexp.MustCompile(`(?m)^func ((?:Benchmark|Test)\w+)\(`)
	defined := make(map[string]bool)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range funcDecl.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range named {
		if !defined[name] {
			t.Errorf("README's experiment table names %s, which no test file defines", name)
		}
	}
}
