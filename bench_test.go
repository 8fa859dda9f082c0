// Benchmarks regenerating the paper-level experiments (E2-E14). Each
// benchmark maps to one experiment row; cmd/faust-bench prints the
// corresponding human-readable tables, README "Performance" has the
// measured numbers and README "Retired experiments" the verdicts of the
// experiments no longer run. Run with:
//
//	go test -bench=. -benchmem
package faust

import (
	"context"
	"fmt"
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

// BenchmarkRoundsPerOp verifies the one-round claim (E5): exactly one
// server->client message per operation.
func BenchmarkRoundsPerOp(b *testing.B) {
	nw, clients := ustorCluster(b, 2, transport.WithMetrics())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := clients[0].Write([]byte(fmt.Sprintf("v%d", i))); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := nw.Stats()
	b.ReportMetric(float64(st.ServerToClientMsgs)/float64(b.N), "rounds/op")
	b.ReportMetric(float64(st.ClientToServerMsgs)/float64(b.N), "msgs-sent/op")
}

// BenchmarkMessageSizeVsN measures the per-operation communication volume
// as n grows (E6): the paper claims O(n) bits per request.
func BenchmarkMessageSizeVsN(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			nw, clients := ustorCluster(b, n, transport.WithMetrics())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := clients[0].Write([]byte(fmt.Sprintf("v%d", i))); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := nw.Stats()
			perOp := float64(st.ClientToServerBytes+st.ServerToClientBytes) / float64(b.N)
			b.ReportMetric(perOp, "bytes/op")
			b.ReportMetric(perOp/float64(n), "bytes/op/client")
		})
	}
}

// BenchmarkWaitFreedom measures reads while another client holds a
// submitted-but-uncommitted write (E8): USTOR does not block.
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
	ring, signers := crypto.NewTestKeyring(n, 1)

	b.Run("ustor", func(b *testing.B) {
		nw := transport.NewNetwork(n, ustor.NewServer(n))
		b.Cleanup(nw.Stop)
		clients := make([]*ustor.Client, n)
		for i := range clients {
			clients[i] = ustor.NewClient(i, ring, signers[i], nw.ClientLink(i))
		}
		var next int32
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			c := clients[int(atomicAdd(&next, 1))%n]
			i := 0
			for pb.Next() {
				i++
				if err := c.Write([]byte(fmt.Sprintf("c%d-%d", c.ID(), i))); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
	b.Run("lockstep", func(b *testing.B) {
		nw := transport.NewNetwork(n, lockstep.NewServer(n))
		b.Cleanup(nw.Stop)
		clients := make([]*lockstep.Client, n)
		for i := range clients {
			clients[i] = lockstep.NewClient(i, ring, signers[i], nw.ClientLink(i))
		}
		var next int32
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			c := clients[int(atomicAdd(&next, 1))%n]
			i := 0
			for pb.Next() {
				i++
				if err := c.Write([]byte(fmt.Sprintf("c%d-%d", c.ID(), i))); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

// BenchmarkUSTORvsTrusted isolates the price of fail-awareness (E14).
func BenchmarkUSTORvsTrusted(b *testing.B) {
	const n = 2
	b.Run("trusted-write", func(b *testing.B) {
		nw := transport.NewNetwork(n, trusted.NewServer(n))
		b.Cleanup(nw.Stop)
		c := trusted.NewClient(0, n, nw.ClientLink(0))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.Write([]byte(fmt.Sprintf("v%d", i))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ustor-write", func(b *testing.B) {
		_, clients := ustorCluster(b, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := clients[0].Write([]byte(fmt.Sprintf("v%d", i))); err != nil {
				b.Fatal(err)
			}
		}
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

// BenchmarkStabilityLatencyOffline measures the offline PROBE/VERSION
// stability path with a crashed server (E13). Each iteration builds a
// fresh cluster, performs the propagation ops, crashes the server and
// waits for offline stability.
func BenchmarkStabilityLatencyOffline(b *testing.B) {
	const n = 2
	ring, signers := crypto.NewTestKeyring(n, 1)
	cfg := faustproto.Config{
		ProbeTimeout:      30 * time.Millisecond,
		PollInterval:      10 * time.Millisecond,
		DisableDummyReads: true,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		core := byzantine.NewCrashServer(n, 3)
		nw := transport.NewNetwork(n, core)
		hub := offline.NewHub(n)
		clients := make([]*faustproto.Client, n)
		for j := 0; j < n; j++ {
			clients[j] = faustproto.NewClient(j, ring, signers[j], nw.ClientLink(j), hub.Endpoint(j), faustproto.WithConfig(cfg))
			clients[j].Start()
		}
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
		for _, c := range clients {
			c.Stop()
		}
		nw.Stop()
		hub.Stop()
		b.StartTimer()
	}
}

// BenchmarkDetectionLatency measures the full fork-detection cycle (E11):
// fork materialized -> all clients failed.
func BenchmarkDetectionLatency(b *testing.B) {
	const n = 2
	ring, signers := crypto.NewTestKeyring(n, 1)
	cfg := faustproto.Config{
		ProbeTimeout:      20 * time.Millisecond,
		PollInterval:      5 * time.Millisecond,
		DisableDummyReads: true,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		server, err := byzantine.NewForkingServer(n, [][]int{{0}, {1}})
		if err != nil {
			b.Fatal(err)
		}
		nw := transport.NewNetwork(n, server)
		hub := offline.NewHub(n)
		clients := make([]*faustproto.Client, n)
		for j := 0; j < n; j++ {
			clients[j] = faustproto.NewClient(j, ring, signers[j], nw.ClientLink(j), hub.Endpoint(j), faustproto.WithConfig(cfg))
			clients[j].Start()
		}
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
		for _, c := range clients {
			c.Stop()
		}
		nw.Stop()
		hub.Stop()
		b.StartTimer()
	}
}

// BenchmarkFig2Collaboration replays the Figure 2 scenario (E2) and
// verifies the exact stability cut [10 8 3].
func BenchmarkFig2Collaboration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		svc := NewTestService(3, 1, WithoutDummyReads(),
			WithProbeTimeout(time.Second), WithPollInterval(250*time.Millisecond))
		alice, _ := svc.Client(0)
		bob, _ := svc.Client(1)
		carlos, _ := svc.Client(2)
		b.StartTimer()

		for k := 1; k <= 3; k++ {
			if _, err := alice.Write([]byte(fmt.Sprintf("a%d", k))); err != nil {
				b.Fatal(err)
			}
		}
		if _, _, err := carlos.Read(0); err != nil {
			b.Fatal(err)
		}
		if _, _, err := alice.Read(2); err != nil {
			b.Fatal(err)
		}
		for k := 5; k <= 8; k++ {
			if _, err := alice.Write([]byte(fmt.Sprintf("a%d", k))); err != nil {
				b.Fatal(err)
			}
		}
		if _, _, err := bob.Read(0); err != nil {
			b.Fatal(err)
		}
		if _, _, err := alice.Read(1); err != nil {
			b.Fatal(err)
		}
		if _, err := alice.Write([]byte("a10")); err != nil {
			b.Fatal(err)
		}
		cut := alice.StableCut()
		if cut[0] != 10 || cut[1] != 8 || cut[2] != 3 {
			b.Fatalf("stable_Alice(%v), want [10 8 3]", cut)
		}
		b.StopTimer()
		svc.Close()
		b.StartTimer()
	}
}

// BenchmarkFig3Attack replays the Figure 3 attack (E3) per iteration and
// verifies USTOR accepts it while the versions fork.
func BenchmarkFig3Attack(b *testing.B) {
	const n = 2
	ring, signers := crypto.NewTestKeyring(n, 1)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		server, err := byzantine.NewForkingServer(n, [][]int{{0}, {1}})
		if err != nil {
			b.Fatal(err)
		}
		nw := transport.NewNetwork(n, server)
		c0 := ustor.NewClient(0, ring, signers[0], nw.ClientLink(0))
		c1 := ustor.NewClient(1, ring, signers[1], nw.ClientLink(1))
		b.StartTimer()

		if _, err := c0.WriteX(context.Background(), []byte("u")); err != nil {
			b.Fatal(err)
		}
		r1, err := c1.ReadX(context.Background(), 0)
		if err != nil {
			b.Fatal(err)
		}
		if r1.Value != nil {
			b.Fatal("first read must return bottom")
		}
		if err := server.Replay(0, 0, 1); err != nil {
			b.Fatal(err)
		}
		r2, err := c1.ReadX(context.Background(), 0)
		if err != nil {
			b.Fatal(err)
		}
		if string(r2.Value) != "u" {
			b.Fatalf("second read = %q", r2.Value)
		}
		b.StopTimer()
		nw.Stop()
		b.StartTimer()
	}
}

// BenchmarkPiggybackAblation compares the standard protocol (separate
// COMMIT message) against the Section 5 piggyback optimization: identical
// semantics, half the client->server messages.
func BenchmarkPiggybackAblation(b *testing.B) {
	run := func(b *testing.B, piggyback bool) {
		const n = 2
		ring, signers := crypto.NewTestKeyring(n, 1)
		nw := transport.NewNetwork(n, ustor.NewServer(n), transport.WithMetrics())
		b.Cleanup(nw.Stop)
		var opts []ustor.ClientOption
		if piggyback {
			opts = append(opts, ustor.WithCommitPiggyback())
		}
		c := ustor.NewClient(0, ring, signers[0], nw.ClientLink(0), opts...)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.Write([]byte(fmt.Sprintf("v%d", i))); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		st := nw.Stats()
		b.ReportMetric(float64(st.ClientToServerMsgs)/float64(b.N), "msgs-sent/op")
		b.ReportMetric(float64(st.ClientToServerBytes+st.ServerToClientBytes)/float64(b.N), "bytes/op")
	}
	b.Run("separate-commit", func(b *testing.B) { run(b, false) })
	b.Run("piggyback", func(b *testing.B) { run(b, true) })
}

// BenchmarkCryptoPerOp measures the primitives dominating USTOR's cost
// (E12).
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

// BenchmarkSignVerify is the raw Ed25519 measurement used in EXPERIMENTS
// (E12).
func BenchmarkSignVerify(b *testing.B) {
	_, signers := crypto.NewTestKeyring(1, 1)
	msg := make([]byte, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = signers[0].Sign(crypto.DomainData, msg)
	}
}

// atomicAdd spreads RunParallel workers over clients.
func atomicAdd(p *int32, d int32) int32 {
	return atomic.AddInt32(p, d) - d
}
