// Faust-client is an interactive client for a faust-server. It keeps the
// USTOR protocol state for one client identity and runs a small REPL:
//
//	write <text>      write to the own register
//	read <j>          read register j
//	put <key> <text>  store a key-value pair in the own KV namespace
//	get <key>         read a key of the own namespace
//	del <key>         delete a key of the own namespace
//	ls [j]            list the own (or client j's) KV namespace
//	getfrom <j> <key> authenticated read of client j's namespace
//	cut               print the stability cut (requires -listen/-peers)
//	status            print failure state
//	stats             print session KV traffic and round-trip latency stats
//	trace             print the span tree of the last traced operation
//	quit
//
// Without -listen/-peers it runs the bare USTOR protocol (storage with
// failure detection, no stability). With them it runs the full FAUST
// stack, exchanging PROBE/VERSION/FAILURE messages with peers over TCP.
// The KV commands drive the authenticated key-value layer (package kv):
// values are chunked over the bulk blob channel and every read verifies
// content hashes against the owner's Merkle root. They are available in
// USTOR mode (the kv layer needs the extended register API).
//
// The handshake names the shard ("default" when -shard is empty) and the
// server acks it, so a rejection — unknown shard, out-of-range id — is
// reported with the server's reason and a non-zero exit instead of a bare
// connection error on the first operation.
//
// Keys are derived from -seed (demo-grade; all parties must use the same
// seed and -n).
//
// Example (three shells):
//
//	faust-server -addr :7440 -n 2
//	faust-client -server localhost:7440 -n 2 -id 0 -listen :7450 -peers 1=localhost:7451
//	faust-client -server localhost:7440 -n 2 -id 1 -listen :7451 -peers 0=localhost:7450
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"faust/internal/crypto"
	"faust/internal/faustproto"
	"faust/internal/kv"
	"faust/internal/obs"
	"faust/internal/obs/trace"
	"faust/internal/offline"
	"faust/internal/transport"
	"faust/internal/ustor"
)

func main() {
	server := flag.String("server", "localhost:7440", "faust-server address")
	shardName := flag.String("shard", "", "shard name on a multi-tenant server; empty = the default shard")
	n := flag.Int("n", 3, "number of clients in this shard's group (must match the server)")
	id := flag.Int("id", 0, "this client's identity (0..n-1)")
	seed := flag.Int64("seed", 42, "deterministic demo key seed (must match peers)")
	listen := flag.String("listen", "", "offline-channel listen address (enables FAUST)")
	peersFlag := flag.String("peers", "", "offline peers as id=host:port,id=host:port")
	probe := flag.Duration("probe", 2*time.Second, "probe timeout (FAUST delta)")
	flag.Parse()

	if *id < 0 || *id >= *n {
		log.Fatalf("faust-client: -id %d out of range [0,%d)", *id, *n)
	}
	// Tracing is always on in the interactive client: at human pace the
	// recording cost is nil, every operation is retained (head 1-in-1),
	// and the `trace` REPL command can inspect the last one. The keep bit
	// travels on the wire, so a tracing-enabled server retains its half of
	// exactly these traces.
	trace.SetEnabled(true)
	trace.Configure(1, 50*time.Millisecond)
	ring, signers := crypto.NewTestKeyring(*n, *seed)
	link, err := transport.DialTCPShard(*server, *shardName, *id)
	if err != nil {
		log.Fatalf("faust-client: %v", err)
	}

	var fclient *faustproto.Client
	var uclient *ustor.Client
	if *listen != "" {
		peers, err := parsePeers(*peersFlag)
		if err != nil {
			log.Fatalf("faust-client: %v", err)
		}
		mesh, err := offline.ListenTCP(*id, *listen, peers, time.Second)
		if err != nil {
			log.Fatalf("faust-client: %v", err)
		}
		cfg := faustproto.Config{ProbeTimeout: *probe, PollInterval: *probe / 4}
		fclient = faustproto.NewClient(*id, ring, signers[*id], link, mesh,
			faustproto.WithConfig(cfg),
			faustproto.WithStableHandler(func(w []int64) {
				fmt.Printf("\n[stable] cut=%v\n> ", w)
			}),
			faustproto.WithFailHandler(func(err error) {
				fmt.Printf("\n[FAIL] server exposed: %v\n> ", err)
			}),
		)
		fclient.Start()
		defer fclient.Stop()
		fmt.Printf("faust-client %d/%d%s: FAUST mode (offline channel on %s)\n", *id, *n, shardSuffix(*shardName), *listen)
	} else {
		uclient = ustor.NewClient(*id, ring, signers[*id], link,
			ustor.WithFailHandler(func(err error) {
				fmt.Printf("\n[FAIL] server exposed: %v\n> ", err)
			}))
		fmt.Printf("faust-client %d/%d%s: USTOR mode (no offline channel)\n", *id, *n, shardSuffix(*shardName))
	}

	repl(&session{
		fc:     fclient,
		uc:     uclient,
		server: *server,
		shard:  *shardName,
	})
}

func shardSuffix(shard string) string {
	if shard == "" {
		return ""
	}
	return fmt.Sprintf(" (shard %q)", shard)
}

func parsePeers(s string) (map[int]string, error) {
	peers := make(map[int]string)
	if s == "" {
		return peers, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad peer entry %q (want id=host:port)", part)
		}
		pid, err := strconv.Atoi(kv[0])
		if err != nil {
			return nil, fmt.Errorf("bad peer id %q: %w", kv[0], err)
		}
		peers[pid] = kv[1]
	}
	return peers, nil
}

// session bundles the protocol clients with the lazily opened KV store.
type session struct {
	fc     *faustproto.Client
	uc     *ustor.Client
	server string
	shard  string
	store  *kv.Store
}

// kvStore opens the KV layer on first use: a blob channel to the shard
// plus a kv.Store over the USTOR client.
func (s *session) kvStore() (*kv.Store, error) {
	if s.store != nil {
		return s.store, nil
	}
	if s.uc == nil {
		return nil, errors.New("kv commands need USTOR mode (run without -listen/-peers)")
	}
	// A TCP blob channel is sticky-poisoned after any connection-level
	// failure; the redial wrapper re-dials and retries (bounded) so a
	// bounced server or dropped connection doesn't strand the KV session.
	ch := transport.NewRedialBlobChannel(func() (transport.BlobChannel, error) {
		return transport.DialTCPBlob(s.server, s.shard)
	})
	st, err := kv.Open(s.uc, ch)
	if err != nil {
		_ = ch.Close()
		return nil, err
	}
	s.store = st
	return st, nil
}

func repl(s *session) {
	scanner := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for scanner.Scan() {
		fields := strings.Fields(scanner.Text())
		if len(fields) == 0 {
			fmt.Print("> ")
			continue
		}
		switch fields[0] {
		case "write":
			if len(fields) < 2 {
				fmt.Println("usage: write <text>")
				break
			}
			text := strings.Join(fields[1:], " ")
			if s.fc != nil {
				ts, err := s.fc.Write([]byte(text))
				report(err, func() { fmt.Printf("ok, timestamp %d\n", ts) })
			} else {
				res, err := s.uc.WriteX(context.Background(), []byte(text))
				report(err, func() { fmt.Printf("ok, timestamp %d\n", res.Timestamp) })
			}
		case "read":
			if len(fields) != 2 {
				fmt.Println("usage: read <register>")
				break
			}
			j, err := strconv.Atoi(fields[1])
			if err != nil {
				fmt.Printf("bad register: %v\n", err)
				break
			}
			if s.fc != nil {
				v, ts, err := s.fc.Read(j)
				report(err, func() { fmt.Printf("%q (timestamp %d)\n", v, ts) })
			} else {
				v, err := s.uc.Read(j)
				report(err, func() { fmt.Printf("%q\n", v) })
			}
		case "put":
			if len(fields) < 3 {
				fmt.Println("usage: put <key> <text>")
				break
			}
			withKV(s, func(st *kv.Store) error {
				if err := st.Put(context.Background(), fields[1], []byte(strings.Join(fields[2:], " "))); err != nil {
					return err
				}
				fmt.Printf("ok, %d keys, root %x...\n", st.Len(), st.Root()[:8])
				return nil
			})
		case "get":
			if len(fields) != 2 {
				fmt.Println("usage: get <key>")
				break
			}
			withKV(s, func(st *kv.Store) error {
				v, err := st.Get(context.Background(), fields[1])
				if err != nil {
					return err
				}
				fmt.Printf("%q\n", v)
				return nil
			})
		case "del":
			if len(fields) != 2 {
				fmt.Println("usage: del <key>")
				break
			}
			withKV(s, func(st *kv.Store) error {
				if err := st.Delete(context.Background(), fields[1]); err != nil {
					return err
				}
				fmt.Println("ok")
				return nil
			})
		case "ls":
			if len(fields) > 2 {
				fmt.Println("usage: ls [client]")
				break
			}
			withKV(s, func(st *kv.Store) error {
				keys := st.Keys()
				if len(fields) == 2 {
					j, err := strconv.Atoi(fields[1])
					if err != nil {
						return fmt.Errorf("bad client index: %w", err)
					}
					if keys, err = st.ListFrom(context.Background(), j); err != nil {
						return err
					}
				}
				for _, k := range keys {
					fmt.Println(k)
				}
				fmt.Printf("(%d keys)\n", len(keys))
				return nil
			})
		case "getfrom":
			if len(fields) != 3 {
				fmt.Println("usage: getfrom <client> <key>")
				break
			}
			withKV(s, func(st *kv.Store) error {
				j, err := strconv.Atoi(fields[1])
				if err != nil {
					return fmt.Errorf("bad client index: %w", err)
				}
				v, err := st.GetFrom(context.Background(), j, fields[2])
				if err != nil {
					return err
				}
				fmt.Printf("%q\n", v)
				return nil
			})
		case "cut":
			if s.fc == nil {
				fmt.Println("stability cuts need FAUST mode (-listen/-peers)")
				break
			}
			fmt.Printf("cut=%v\n", s.fc.StableCut())
		case "stats":
			printStats(s)
		case "trace":
			trace.Default().Sweep()
			if t := trace.Default().Last(); t != nil {
				t.WriteTree(os.Stdout)
			} else {
				fmt.Println("no trace retained yet (run an operation first)")
			}
		case "status":
			var failed bool
			var reason error
			if s.fc != nil {
				failed, reason = s.fc.Failed()
			} else {
				failed, reason = s.uc.Failed()
			}
			if failed {
				fmt.Printf("FAILED: %v\n", reason)
			} else {
				fmt.Println("ok (no failure detected)")
			}
		case "quit", "exit":
			return
		default:
			fmt.Println("commands: write <text> | read <j> | put <k> <text> | get <k> | del <k> | ls [j] | getfrom <j> <k> | cut | status | stats | trace | quit")
		}
		fmt.Print("> ")
	}
}

// printStats prints the session's KV traffic counters (when the KV layer
// has been used) and the client-observed register round-trip latency
// histograms (ustor-level, so write/read latency shows in both modes).
func printStats(s *session) {
	if s.store != nil {
		st := s.store.Stats()
		fmt.Printf("kv traffic:\n")
		fmt.Printf("  register reads / writes:   %d / %d\n", st.RegisterReads, st.RegisterWrites)
		fmt.Printf("  blob puts / gets:          %d / %d\n", st.BlobPuts, st.BlobGets)
		fmt.Printf("  blob bytes up / down:      %d / %d\n", st.BlobPutBytes, st.BlobGetBytes)
		fmt.Printf("  cache hits (chunk/node/value): %d / %d / %d\n",
			st.ChunkCacheHits, st.NodeCacheHits, st.ValueCacheHits)
	} else {
		fmt.Println("kv traffic: (kv layer not used yet)")
	}
	read, write := ustor.OpLatency()
	printLatency("read", read)
	printLatency("write", write)
}

func printLatency(op string, h obs.HistSnapshot) {
	if h.Count == 0 {
		fmt.Printf("%s round trips: none\n", op)
		return
	}
	fmt.Printf("%s round trips: %d  mean %.2fms  p50 %.2fms  p99 %.2fms  max %.2fms\n",
		op, h.Count, float64(h.Sum)/float64(h.Count)/1e6,
		float64(h.Quantile(0.50))/1e6, float64(h.Quantile(0.99))/1e6, float64(h.Max)/1e6)
}

// withKV runs a KV command against the lazily opened store.
func withKV(s *session, f func(*kv.Store) error) {
	st, err := s.kvStore()
	if err != nil {
		fmt.Printf("error: %v\n", err)
		return
	}
	if err := f(st); err != nil {
		fmt.Printf("error: %v\n", err)
	}
}

func report(err error, onOK func()) {
	if err != nil {
		fmt.Printf("error: %v\n", err)
		return
	}
	onOK()
}
