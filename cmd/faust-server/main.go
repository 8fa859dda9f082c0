// Faust-server hosts one or more USTOR storage shards over TCP.
//
// The server is the UNTRUSTED party of the protocol: all guarantees are
// enforced by the clients. By default it holds no keys and verifies
// nothing. -verify opts into dispatcher-side SUBMIT-signature checking as
// admission hygiene (forged SUBMITs are rejected before they touch shard
// state); the public keys are derived deterministically from -seed, which
// must match the clients' -seed (demo-grade key distribution — use a real
// PKI beyond a demo). Verification never strengthens the protocol: a
// Byzantine server would simply skip it.
//
// # Batched dispatch
//
// Each shard dispatcher drains its inbox in arrival-order batches of up
// to -max-batch messages: SUBMIT signatures verify in parallel across
// -verify-workers goroutines (with -verify), ops apply in order, the WAL
// syncs once per batch, and replies coalesce into one framed write per
// connection. A batch of one runs the same body; -max-batch 1 makes
// every batch one.
//
// Example:
//
//	faust-server -addr :7440 -n 3 -data-dir /var/lib/faust
//	faust-client -server localhost:7440 -n 3 -id 0        # in another shell
//
// # Multi-tenant shards
//
// The server hosts many independent client groups ("shards") in one
// process. Every shard is its own n-client register group with isolated
// state; the TCP handshake names the shard a connection belongs to, and
// clients that name none land on the shard named "default", which -n and
// -data-dir configure.
//
//	faust-server -addr :7440 -n 3 -data-dir /var/lib/faust \
//	    -shards tenants.conf -shard-spec n=4,persist
//
// -shards names a manifest declaring shards, one per line:
//
//	# tenants.conf
//	acme     n=4 persist
//	initech  n=8
//
// -shard-spec is a template ("n=4,persist") for shards that connect
// without being declared: they are created lazily on first handshake.
// Without -shard-spec, unknown shard names are rejected. Declared shards
// are also instantiated lazily — an idle tenant costs nothing.
//
// A manifest entry named "default" overrides the -n/-data-dir-derived
// default shard; its data then lives under shards/default like any other
// tenant instead of at the data-dir root.
//
// Persistent shards live in <data-dir>/shards/<name>/ (the default shard
// keeps the historic layout at the -data-dir root, so existing data
// directories recover unchanged). Each shard has its own WAL and
// snapshots; -fsync, -group-commit, -flush-interval and -snapshot-every
// apply to every persistent shard.
//
// # Persistence
//
// Without -data-dir the server state lives in memory and a restart rolls
// every client back — which their fail-awareness checks then report as a
// server fault. With -data-dir the server runs write-ahead logged
// (internal/store): every SUBMIT and COMMIT is appended to the log before
// it is applied, and a full state snapshot is rotated in every
// -snapshot-every records.
//
// On-disk layout inside a shard's directory (one generation of each at
// steady state):
//
//	snap-00000007       full server state (MEM, c, SVER, L, P), CRC-checked
//	wal-00000007.log    records since that snapshot: u32 len | u32 CRC-32C | payload
//
// Recovery on boot loads the newest valid snapshot and replays the WAL
// tail. A torn final record (the append in flight at crash time) is
// dropped silently: the server never replied to that operation, so no
// client observed it. Snapshots rotate atomically (tmp + rename), so a
// crash during rotation leaves the previous baseline intact.
//
// -fsync makes WAL records survive power loss: off, state survives process
// crashes (OS page cache); on, it also survives power loss. Its cost is
// recorded under E15 in the README's "Retired experiments" and measured
// by the reg-tcp-wal workload of benchmark/.
//
// The WAL runs in group-commit mode by default (-group-commit=false
// flushes every record on its own, a group commit of one): records
// buffer briefly and reach the disk as one batched write plus — with
// -fsync — a single fdatasync that covers every record a REPLY depends
// on. -flush-interval bounds how long an idle
// COMMIT may stay buffered; losing one to a crash inside that window is
// fail-safe (the committing client reports the rollback rather than
// accepting it).
//
// Durability is deliberately unauthenticated: a data directory altered by
// an attacker (e.g. a truncated WAL rolling the state back) recovers
// "successfully" — and the clients' Algorithm 1 checks then expose it
// exactly as they expose a lying live server. The store protects against
// crashes; fail-awareness protects against everything else.
//
// # Blob failover fleet
//
// -blob-backends replaces each shard's single bulk blob store with an
// ordered failover fleet (internal/blobfleet): writes replicate to the
// first W alive backends, reads fan through alive backends with content
// verification and read repair, and per-backend EMA aliveness plus a
// background prober route around dead members.
//
//	faust-server -data-dir /var/lib/faust -blob-backends dir,dir=mirror,w=2
//
// -blob-faults arms deterministic fault injection on one fleet backend
// ("backend=0,errs=0.3,latency=2ms,seed=7") for failure drills and CI
// smoke tests; see the package docs for both grammars.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"faust/internal/blobfleet"
	"faust/internal/crypto"
	"faust/internal/obs"
	"faust/internal/obs/trace"
	"faust/internal/shard"
	"faust/internal/store"
	"faust/internal/transport"
)

func main() {
	addr := flag.String("addr", ":7440", "listen address")
	n := flag.Int("n", 3, "number of clients (registers) of the default shard")
	dataDir := flag.String("data-dir", "", "persistence directory; empty = in-memory only")
	snapshotEvery := flag.Int("snapshot-every", 1024, "rotate a state snapshot every N logged records (0 = never)")
	fsync := flag.Bool("fsync", false, "sync the WAL before every reply (survives power loss, slower)")
	groupCommit := flag.Bool("group-commit", true, "batch WAL records into one write+sync per reply instead of one per record")
	flushInterval := flag.Duration("flush-interval", 2*time.Millisecond, "group-commit: max time a buffered record may wait for a background flush")
	shardsFile := flag.String("shards", "", "shard manifest file: one '<name> n=<clients> [persist]' per line")
	shardSpec := flag.String("shard-spec", "", "template for lazily created shards, e.g. 'n=4,persist'; empty = reject undeclared shards")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics (Prometheus), /events, /trace and /debug/pprof on this address; empty = disabled")
	blobBackends := flag.String("blob-backends", "", "failover blob fleet per shard, e.g. 'dir,dir=mirror,mem,w=2'; empty = single default store")
	blobFaults := flag.String("blob-faults", "", "fault-inject one fleet backend, e.g. 'backend=0,errs=0.3,latency=2ms,seed=7' (requires -blob-backends)")
	traceSample := flag.Int("trace-sample", 0, "retain 1 in N traces by head sampling (0 = head sampling off)")
	traceSlow := flag.Duration("trace-slow", 0, "always retain traces at least this slow (tail sampling; 0 = off)")
	maxBatch := flag.Int("max-batch", transport.DefaultMaxBatch, "max messages a shard dispatcher drains per batch (1 = unbatched)")
	verify := flag.Bool("verify", false, "verify SUBMIT signatures at the dispatcher (admission hygiene; keys derived from -seed)")
	verifyWorkers := flag.Int("verify-workers", 0, "goroutines for parallel batch signature verification (0 = GOMAXPROCS)")
	seed := flag.Int64("seed", 42, "deterministic demo key seed for -verify (must match the clients' -seed)")
	flag.Parse()

	if *traceSample > 0 || *traceSlow > 0 {
		trace.SetEnabled(true)
		trace.Configure(*traceSample, *traceSlow)
		fmt.Printf("faust-server: tracing on (head 1-in-%d, slow threshold %s); GET /trace on the metrics port\n",
			*traceSample, *traceSlow)
	}

	if *n <= 0 {
		log.Fatalf("faust-server: -n must be positive, got %d", *n)
	}

	var specs []shard.Spec
	manifestHasDefault := false
	if *shardsFile != "" {
		f, err := os.Open(*shardsFile)
		if err != nil {
			log.Fatalf("faust-server: %v", err)
		}
		manifest, err := shard.ParseManifest(f)
		_ = f.Close()
		if err != nil {
			log.Fatalf("faust-server: %v", err)
		}
		specs = manifest
		for _, sp := range manifest {
			if sp.Name == transport.DefaultShard {
				manifestHasDefault = true
			}
		}
	}
	if !manifestHasDefault {
		// The flag-derived default shard keeps the historic layout at the
		// data-dir root. A manifest entry named "default" overrides -n and
		// places its data under shards/default like any other shard.
		specs = append(specs, shard.Spec{
			Name:    transport.DefaultShard,
			N:       *n,
			Persist: *dataDir != "",
			Dir:     *dataDir,
		})
	}
	var def *shard.Spec
	if *shardSpec != "" {
		sp, err := shard.ParseSpec(*shardSpec)
		if err != nil {
			log.Fatalf("faust-server: %v", err)
		}
		def = &sp
	}

	fleetSpec, err := blobfleet.ParseFleetSpec(*blobBackends)
	if err != nil {
		log.Fatalf("faust-server: %v", err)
	}
	faultPlan, err := blobfleet.ParseFaultPlan(*blobFaults)
	if err != nil {
		log.Fatalf("faust-server: %v", err)
	}
	if faultPlan != nil && fleetSpec == nil {
		log.Fatalf("faust-server: -blob-faults requires -blob-backends")
	}

	opts := shard.Options{
		BaseDir: *dataDir,
		FileOptions: store.FileOptions{
			Fsync:         *fsync,
			GroupCommit:   *groupCommit,
			FlushInterval: *flushInterval,
		},
		StoreOptions: store.Options{SnapshotEvery: *snapshotEvery},
		Default:      def,
		BlobFleet:    fleetSpec,
		BlobFaults:   faultPlan,
	}
	if *verify {
		crypto.SetVerifyWorkers(*verifyWorkers)
		opts.VerifyKeyring = func(name string, n int) *crypto.Keyring {
			// Same derivation as faust-client: seed + group size. Every
			// shard with the same n shares the demo key set.
			ring, _ := crypto.NewTestKeyring(n, *seed)
			return ring
		}
	}
	router, err := shard.NewRouter(specs, opts)
	if err != nil {
		log.Fatalf("faust-server: %v", err)
	}

	// Instantiate the default shard eagerly so recovery cost is paid at
	// boot and its outcome is visible; named shards stay lazy.
	if _, err := router.ResolveShard(transport.DefaultShard, -1); err != nil {
		log.Fatalf("faust-server: opening default shard: %v", err)
	}
	defInfo, _ := router.Info(transport.DefaultShard)
	if defInfo.Persistent {
		fmt.Printf("faust-server: recovered from %s (snapshot: %v, WAL records replayed: %d, fsync: %v, group-commit: %v)\n",
			defInfo.Dir, defInfo.RecoveredSnapshot, defInfo.ReplayedRecords, *fsync, *groupCommit)
	}
	if fleetSpec != nil {
		names := make([]string, 0, len(fleetSpec.Entries))
		for _, st := range router.FleetStatus(transport.DefaultShard) {
			names = append(names, st.Name)
		}
		fmt.Printf("faust-server: blob failover fleet per shard: %v\n", names)
		if faultPlan != nil {
			fmt.Printf("faust-server: fault injection armed on backend %d: %+v\n", faultPlan.Backend, faultPlan.Config)
		}
	}

	if *metricsAddr != "" {
		obs.SetEnabled(true)
		mln, mshut, err := obs.Serve(*metricsAddr, obs.Default())
		if err != nil {
			log.Fatalf("faust-server: metrics listen: %v", err)
		}
		defer mshut()
		fmt.Printf("faust-server: metrics on http://%s/metrics (events: /events, pprof: /debug/pprof)\n", mln.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("faust-server: listen: %v", err)
	}
	srv := transport.ServeTCPSharded(ln, router, transport.WithTCPMaxBatch(*maxBatch))
	fmt.Printf("faust-server: serving %d registers on %s (default shard)\n", defInfo.N, ln.Addr())
	if declared := router.DeclaredShards(); len(declared) > 1 {
		fmt.Printf("faust-server: declared shards: %v\n", declared)
	}
	if def != nil {
		fmt.Printf("faust-server: lazy shard creation enabled (n=%d, persist=%v)\n", def.N, def.Persist)
	}
	if *maxBatch != 1 {
		fmt.Printf("faust-server: batched dispatch on (max-batch=%d)\n", *maxBatch)
	}
	if *verify {
		fmt.Printf("faust-server: SUBMIT signature verification on (seed=%d, workers=%d)\n", *seed, crypto.VerifyWorkers())
	}
	fmt.Println("faust-server: this process is the UNTRUSTED party; clients verify everything")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("\nfaust-server: shutting down")
	srv.Stop()
	for _, info := range router.OpenShards() {
		fmt.Printf("faust-server: shard %q served (n=%d, persistent=%v)\n", info.Name, info.N, info.Persistent)
	}
	// Final snapshots so the next boot replays nothing; then release.
	if err := router.Close(); err != nil {
		log.Printf("faust-server: closing shards: %v", err)
	}
}
