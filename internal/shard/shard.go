// Package shard hosts many independent USTOR instances ("shards") behind
// one server process — the multi-tenant deployment the ROADMAP targets.
//
// Each shard is its own n-client register group with its own ustor.Server
// and, optionally, its own store.Persistent backend in a per-shard data
// directory; shards share nothing but the process. The Router implements
// transport.ShardResolver, so a transport.TCPServer serves all shards from
// a single listener: the handshake names the shard (transport.DialTCP
// names transport.DefaultShard), one ResolveShard call hands the
// transport the shard's transport.Shard — core, verification ring, blob
// store — and every shard gets its own dispatcher goroutine in the
// transport: per-shard handler atomicity with cross-shard parallelism.
//
// Shards are instantiated lazily on first resolution: a declared (or
// template-matched) shard costs nothing until a client connects, at which
// point its state is recovered from disk if it persists. A resolution the
// spec refuses (unknown or invalid name, out-of-range client id) is
// refused before anything is instantiated. Close snapshots and releases
// every instantiated persistent shard.
package shard

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"faust/internal/blobfleet"
	"faust/internal/crypto"
	"faust/internal/store"
	"faust/internal/transport"
	"faust/internal/ustor"
)

// Spec declares one shard.
type Spec struct {
	// Name identifies the shard in handshakes and on disk. It must match
	// ValidName (letters, digits, '.', '_', '-'; leading alphanumeric; at
	// most 64 bytes) because it becomes a directory name.
	Name string
	// N is the shard's client-group size (number of registers).
	N int
	// Persist enables WAL + snapshot durability for this shard.
	Persist bool
	// Dir overrides the shard's data directory. Empty means
	// <Options.BaseDir>/shards/<Name>. Only meaningful with Persist.
	Dir string
}

// Options configures a Router.
type Options struct {
	// BaseDir is the root for per-shard data directories
	// (<BaseDir>/shards/<name>). Required if any persistent shard leaves
	// Spec.Dir empty.
	BaseDir string
	// FileOptions configures every persistent shard's FileBackend.
	FileOptions store.FileOptions
	// StoreOptions configures every persistent shard's WAL wrapper.
	StoreOptions store.Options
	// Default, when non-nil, is the template for shards that are resolved
	// without having been declared: the requested name is lazily created
	// with the template's N and Persist (Name and Dir are ignored). Nil
	// rejects unknown shard names.
	Default *Spec
	// BlobFleet, when non-nil, backs every shard's bulk blob channel with
	// a failover fleet built from this spec instead of the single default
	// store (in-memory shards degrade the spec's dir entries to mem —
	// see blobfleet.FleetSpec.Build). BlobFaults optionally wraps one
	// fleet backend in a fault injector.
	BlobFleet  *blobfleet.FleetSpec
	BlobFaults *blobfleet.FaultPlan
	// VerifyKeyring, when non-nil, supplies each shard's public keyring
	// for dispatcher-side SUBMIT-signature verification (transport.Shard's
	// Ring). It is called once per shard instantiation with the shard's
	// name and group size; returning nil leaves the shard to the
	// transport's server-wide transport.WithVerifyKeyring ring, if any.
	// Admission hygiene only — the protocol's guarantees stay
	// client-enforced.
	VerifyKeyring func(name string, n int) *crypto.Keyring
}

// Info describes one instantiated shard.
type Info struct {
	Name              string
	N                 int
	Persistent        bool
	Dir               string // empty for in-memory shards
	RecoveredSnapshot bool   // recovery loaded a snapshot at instantiation
	ReplayedRecords   int    // WAL records replayed at instantiation
}

// instance is one live shard.
type instance struct {
	info  Info
	core  transport.ServerCore
	ps    *store.Persistent   // nil for in-memory shards
	ring  *crypto.Keyring     // nil when the shard is unverified
	blobs transport.BlobStore // bulk blob channel backing (KV chunks)
	fleet *blobfleet.Failover // nil without Options.BlobFleet; Close stops its prober
}

// pendingCreate tracks one shard's in-flight instantiation so concurrent
// resolutions of the same name share a single create — which may replay a
// WAL — without holding the router mutex across it.
type pendingCreate struct {
	done chan struct{} // closed once inst/err are set
	inst *instance
	err  error
}

// Router owns the shard table of a multi-tenant server. It is safe for
// concurrent use; each shard is instantiated exactly once, and
// instantiation (disk recovery included) runs outside the router mutex so
// one shard's recovery never stalls other shards' handshakes.
type Router struct {
	opts Options

	mu       sync.Mutex
	specs    map[string]Spec
	open     map[string]*instance
	creating map[string]*pendingCreate
	closed   bool
}

var (
	_ transport.ShardResolver = (*Router)(nil)
	_ transport.BlobStore     = (*store.FileBlobs)(nil)
)

// ValidName reports whether a shard name is acceptable: 1-64 bytes of
// letters, digits, '.', '_' or '-', starting with a letter or digit. The
// constraint keeps names safe to embed in directory paths.
func ValidName(name string) bool {
	if len(name) == 0 || len(name) > 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case (c == '.' || c == '_' || c == '-') && i > 0:
		default:
			return false
		}
	}
	return true
}

// NewRouter validates the declared specs and returns a router. No shard is
// instantiated yet; each is created (and, if persistent, recovered) on its
// first ResolveShard. The spec table is immutable from here on.
func NewRouter(specs []Spec, opts Options) (*Router, error) {
	r := &Router{
		opts:     opts,
		specs:    make(map[string]Spec, len(specs)),
		open:     make(map[string]*instance),
		creating: make(map[string]*pendingCreate),
	}
	for _, sp := range specs {
		if err := r.validateSpec(sp); err != nil {
			return nil, err
		}
		if _, dup := r.specs[sp.Name]; dup {
			return nil, fmt.Errorf("shard: duplicate shard %q", sp.Name)
		}
		r.specs[sp.Name] = sp
	}
	if d := opts.Default; d != nil {
		if d.N <= 0 {
			return nil, fmt.Errorf("shard: default spec needs a positive n, got %d", d.N)
		}
		if d.Persist && opts.BaseDir == "" {
			return nil, errors.New("shard: default spec persists but no base directory is configured")
		}
	}
	return r, nil
}

func (r *Router) validateSpec(sp Spec) error {
	if !ValidName(sp.Name) {
		return fmt.Errorf("shard: invalid shard name %q", sp.Name)
	}
	if sp.N <= 0 {
		return fmt.Errorf("shard: shard %q needs a positive n, got %d", sp.Name, sp.N)
	}
	if sp.Persist && sp.Dir == "" && r.opts.BaseDir == "" {
		return fmt.Errorf("shard: shard %q persists but has no directory (set Spec.Dir or Options.BaseDir)", sp.Name)
	}
	return nil
}

// errClosed refuses resolutions after Close.
var errClosed = errors.New("shard: router closed")

// ResolveShard implements transport.ShardResolver: it returns the named
// shard's core, verification ring and blob store, instantiating the shard
// on first use. The name and client id (negative: none — a blob channel,
// or a server opening a shard at boot) are validated against the
// declared spec or the Options.Default template BEFORE anything is
// instantiated, so a refused handshake cannot force shard creation —
// otherwise an attacker cycling fresh names with bad ids could grow
// goroutines, FDs and directories without bound.
func (r *Router) ResolveShard(name string, id int) (transport.Shard, error) {
	sp, err := r.specFor(name)
	if err != nil {
		return transport.Shard{}, err
	}
	if id >= sp.N {
		return transport.Shard{}, fmt.Errorf("shard: client id %d out of range for shard %q (n=%d)", id, name, sp.N)
	}
	inst, err := r.instantiate(sp)
	if err != nil {
		return transport.Shard{}, err
	}
	return transport.Shard{Core: inst.core, Ring: inst.ring, Blobs: inst.blobs}, nil
}

// specFor returns the spec a name resolves to: the declared one, or one
// derived from Options.Default. It reads only immutable configuration.
func (r *Router) specFor(name string) (Spec, error) {
	if sp, ok := r.specs[name]; ok {
		return sp, nil
	}
	d := r.opts.Default
	if d == nil {
		return Spec{}, fmt.Errorf("shard: unknown shard %q", name)
	}
	if !ValidName(name) {
		return Spec{}, fmt.Errorf("shard: invalid shard name %q", name)
	}
	return Spec{Name: name, N: d.N, Persist: d.Persist}, nil
}

// instantiate returns sp's live instance, creating it on first use. The
// creation — including recovery of a persistent shard's WAL — runs
// outside r.mu, so resolutions of other shards proceed while one shard
// recovers; concurrent resolutions of the same name share the one
// in-flight creation.
func (r *Router) instantiate(sp Spec) (*instance, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, errClosed
	}
	if inst, ok := r.open[sp.Name]; ok {
		r.mu.Unlock()
		return inst, nil
	}
	if pc, ok := r.creating[sp.Name]; ok {
		r.mu.Unlock()
		<-pc.done
		return pc.inst, pc.err
	}
	pc := &pendingCreate{done: make(chan struct{})}
	r.creating[sp.Name] = pc
	r.mu.Unlock()

	inst, err := r.create(sp)

	r.mu.Lock()
	delete(r.creating, sp.Name)
	if err == nil {
		if r.closed {
			// Close ran while this shard was being created; it could not
			// have seen the instance, so release the backend here.
			if inst.ps != nil {
				_ = inst.ps.Close()
			}
			inst.closeBlobs()
			inst, err = nil, errClosed
		} else {
			r.open[sp.Name] = inst
		}
	}
	r.mu.Unlock()
	pc.inst, pc.err = inst, err
	close(pc.done)
	return inst, err
}

// create instantiates one shard, recovering persistent state if any.
// Every shard also gets a blob store for the bulk channel: by default an
// in-memory one for in-memory shards and a file-backed one under
// <dir>/blobs for persistent shards (so chunked KV values survive
// restarts with the registers); with Options.BlobFleet, a failover fleet
// built from the spec instead.
func (r *Router) create(sp Spec) (*instance, error) {
	srv := ustor.NewServer(sp.N)
	inst := &instance{
		info: Info{Name: sp.Name, N: sp.N, Persistent: sp.Persist},
		core: srv,
	}
	if r.opts.VerifyKeyring != nil {
		inst.ring = r.opts.VerifyKeyring(sp.Name, sp.N)
	}
	dir := ""
	if sp.Persist {
		dir = sp.Dir
		if dir == "" {
			dir = filepath.Join(r.opts.BaseDir, "shards", sp.Name)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("shard: creating %q data dir: %w", sp.Name, err)
		}
	}
	if err := r.openBlobs(inst, sp, dir); err != nil {
		return nil, err
	}
	if !sp.Persist {
		return inst, nil
	}
	backend, err := store.OpenFile(dir, r.opts.FileOptions)
	if err != nil {
		inst.closeBlobs()
		return nil, fmt.Errorf("shard: opening %q backend: %w", sp.Name, err)
	}
	ps, err := store.Open(srv, backend, r.opts.StoreOptions)
	if err != nil {
		_ = backend.Close()
		inst.closeBlobs()
		return nil, fmt.Errorf("shard: recovering %q: %w", sp.Name, err)
	}
	inst.core = ps
	inst.ps = ps
	inst.info.Dir = dir
	inst.info.RecoveredSnapshot, inst.info.ReplayedRecords = ps.Recovered()
	return inst, nil
}

// openBlobs picks the shard's bulk blob backing: a failover fleet when
// one is configured, the legacy single store otherwise. dir is "" for
// in-memory shards.
func (r *Router) openBlobs(inst *instance, sp Spec, dir string) error {
	if fs := r.opts.BlobFleet; fs != nil {
		fleet, err := fs.Build(dir, r.opts.FileOptions.Fsync, blobfleet.Options{Shard: sp.Name}, r.opts.BlobFaults)
		if err != nil {
			return fmt.Errorf("shard: building %q blob fleet: %w", sp.Name, err)
		}
		inst.blobs, inst.fleet = fleet, fleet
		return nil
	}
	if dir == "" {
		inst.blobs = transport.NewMemBlobs()
		return nil
	}
	blobs, err := store.OpenFileBlobs(filepath.Join(dir, "blobs"), r.opts.FileOptions.Fsync)
	if err != nil {
		return fmt.Errorf("shard: opening %q blob store: %w", sp.Name, err)
	}
	inst.blobs = blobs
	return nil
}

// closeBlobs stops the shard's fleet prober, if it has a fleet.
func (inst *instance) closeBlobs() {
	if inst.fleet != nil {
		_ = inst.fleet.Close()
	}
}

// FleetStatus reports an instantiated shard's blob fleet backends, in
// fleet order. Nil when the shard is not open or runs without a fleet.
func (r *Router) FleetStatus(name string) []blobfleet.BackendStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	inst, ok := r.open[name]
	if !ok || inst.fleet == nil {
		return nil
	}
	return inst.fleet.Status()
}

// Info returns the instantiation record of an open shard.
func (r *Router) Info(name string) (Info, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	inst, ok := r.open[name]
	if !ok {
		return Info{}, false
	}
	return inst.info, true
}

// OpenShards lists every instantiated shard, sorted by name.
func (r *Router) OpenShards() []Info {
	r.mu.Lock()
	defer r.mu.Unlock()
	infos := make([]Info, 0, len(r.open))
	for _, inst := range r.open {
		infos = append(infos, inst.info)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// DeclaredShards lists every declared (manifest) shard name, sorted.
func (r *Router) DeclaredShards() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.specs))
	for name := range r.specs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Close snapshots and closes every instantiated persistent shard (so the
// next boot replays nothing) and rejects further resolutions. Stop the
// transport server first: a shard resolved mid-Close is not protected.
func (r *Router) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	var errs []error
	for name, inst := range r.open {
		inst.closeBlobs()
		if inst.ps == nil {
			continue
		}
		if err := inst.ps.Snapshot(); err != nil {
			errs = append(errs, fmt.Errorf("shard %q snapshot: %w", name, err))
		}
		if err := inst.ps.Close(); err != nil {
			errs = append(errs, fmt.Errorf("shard %q close: %w", name, err))
		}
	}
	return errors.Join(errs...)
}
