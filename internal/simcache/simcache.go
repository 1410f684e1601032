// Package simcache memoizes whole-node transient simulations. Simulations
// are the expensive resource of the DoE flow — replicated center points,
// optimizer revisits and repeated validate requests all re-run identical
// transients — so results are cached content-addressed by a deep
// fingerprint of (engine name, sim.Design, sim.Config). The cache has a
// bounded in-memory LRU tier, an optional JSON disk tier that survives
// daemon restarts, an optional Remote tier (the fleet's sharded peer
// cache, see internal/cluster), and single-flight deduplication so
// concurrent identical requests execute the simulation once and share the
// result.
package simcache

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Engine is the simulation entry-point signature shared by sim.RunFast and
// sim.RunReference.
type Engine func(sim.Design, sim.Config) (*sim.Result, error)

// Runner executes a simulation request, possibly answering from a cache.
// ctx carries cancellation intent plus the observability trace (see
// internal/obs): cache decisions are logged through obs.FromContext under
// the caller's trace ID. engine names the engine so different engines
// never alias; fn performs the actual run on a miss. Callers must treat
// the returned Result as shared and immutable.
type Runner interface {
	Run(ctx context.Context, engine string, fn Engine, d sim.Design, cfg sim.Config) (*sim.Result, error)
}

// Direct is the no-op Runner: every request runs the simulation.
type Direct struct{}

func (Direct) Run(_ context.Context, _ string, fn Engine, d sim.Design, cfg sim.Config) (*sim.Result, error) {
	return fn(d, cfg)
}

// Remote is an optional fleet tier consulted between the disk tier and the
// engine: internal/cluster implements it with the sharded peer-cache
// protocol. Fetch asks the key's owner for a cached result; a false answer
// (not found, owner down, timeout — the implementation decides and counts)
// falls through to local simulation, so the remote tier can only save
// work, never fail a run. Store replicates a freshly simulated result to
// the key's owner; it is called synchronously after the engine succeeds
// and before the result is returned, so by the time a caller observes the
// result the owner can serve it to the rest of the fleet.
type Remote interface {
	Fetch(ctx context.Context, key, engine string) (*sim.Result, bool)
	Store(ctx context.Context, key, engine string, res *sim.Result)
}

// Stats is a snapshot of cache counters.
type Stats struct {
	Hits        uint64 // answered from the in-memory tier
	Misses      uint64 // executed the simulation
	DedupHits   uint64 // waited on an identical in-flight run
	Evictions   uint64 // LRU entries dropped past capacity
	DiskHits    uint64 // answered from the disk tier
	DiskWrites  uint64 // entries persisted to the disk tier
	DiskCorrupt uint64 // corrupt disk entries quarantined (*.bad)
	Bypass      uint64 // unhashable requests run directly
	RemoteHits  uint64 // answered by the remote (peer) tier
	Entries     int    // current in-memory entries
}

// Options configures a Cache.
type Options struct {
	// Capacity bounds the in-memory tier; <=0 means 512 entries.
	Capacity int
	// Dir, when non-empty, enables the disk tier: one JSON file per entry
	// under this directory, loadable across restarts. The directory is
	// created on first write.
	Dir string
}

type entry struct {
	key string
	res *sim.Result
}

type call struct {
	done chan struct{}
	res  *sim.Result
	err  error
}

// Cache is a content-addressed simulation cache with single-flight
// deduplication. Safe for concurrent use.
type Cache struct {
	capacity int
	dir      string

	mu     sync.Mutex
	lru    *list.List // front = most recent; values are *entry
	items  map[string]*list.Element
	flight map[string]*call
	stats  Stats
	rem    Remote
}

// New returns a Cache with the given options.
func New(opts Options) *Cache {
	cap := opts.Capacity
	if cap <= 0 {
		cap = 512
	}
	return &Cache{
		capacity: cap,
		dir:      opts.Dir,
		lru:      list.New(),
		items:    make(map[string]*list.Element),
		flight:   make(map[string]*call),
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = c.lru.Len()
	return st
}

// SetRemote attaches (or with nil detaches) the fleet tier. Typically set
// once at worker start before traffic, but safe to swap concurrently.
func (c *Cache) SetRemote(r Remote) {
	c.mu.Lock()
	c.rem = r
	c.mu.Unlock()
}

func (c *Cache) remote() Remote {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rem
}

// Lookup answers a key from the memory or disk tier without running
// anything — the read side of the peer-cache protocol. It does not count
// as a Hit (the caller accounts peer-served lookups separately).
func (c *Cache) Lookup(ctx context.Context, key, engine string) (*sim.Result, bool) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.lru.MoveToFront(el)
		res := el.Value.(*entry).res
		c.mu.Unlock()
		return res, true
	}
	c.mu.Unlock()
	res, ok := c.loadDisk(ctx, key, engine)
	if ok {
		c.mu.Lock()
		c.insert(key, res)
		c.mu.Unlock()
	}
	return res, ok
}

// Insert stores an externally produced result (a peer replication push)
// into the memory and disk tiers.
func (c *Cache) Insert(key, engine string, res *sim.Result) {
	c.mu.Lock()
	c.insert(key, res)
	c.mu.Unlock()
	c.storeDisk(key, engine, res)
}

// keyScratch is the pooled working set of one Run call's key computation:
// private copies of the design and config (so the reflective walk hashes
// through pointers into pool-owned memory rather than forcing the caller's
// arguments to escape) plus the reusable hex-key buffer.
type keyScratch struct {
	d   sim.Design
	cfg sim.Config
	key []byte
}

var keyScratchPool = sync.Pool{New: func() any {
	return &keyScratch{key: make([]byte, 0, 2*32)}
}}

// release clears the design/config copies — they carry pointers (vibration
// lattices, tuner config) the pool must not pin — and returns ks.
func (ks *keyScratch) release() {
	ks.d = sim.Design{}
	ks.cfg = sim.Config{}
	keyScratchPool.Put(ks)
}

// Key returns the cache key of a simulation request, equal to
// Fingerprint(engine, d, cfg) and to the key Run computes, through Run's
// pooled scratch: the one allocation is the returned string.
func Key(engine string, d sim.Design, cfg sim.Config) (string, error) {
	ks := keyScratchPool.Get().(*keyScratch)
	defer ks.release()
	ks.d, ks.cfg = d, cfg
	raw, err := appendKey(ks.key[:0], engine, &ks.d, &ks.cfg)
	if err != nil {
		return "", err
	}
	ks.key = raw[:0]
	return string(raw), nil
}

// Run implements Runner. Resolution order: in-memory hit → join an
// identical in-flight run → disk hit → execute. Errors are never cached.
// Cache decisions are logged at debug level through the context's logger
// (obs.FromContext), so one trace ID correlates a request with every
// simulation it hit, missed or coalesced.
//
// The cache-hit path computes the key without allocating: the fingerprint
// runs through a pooled hasher into a pooled buffer, and the map lookups
// index with string(raw), which Go evaluates without materializing the
// string. The key is only committed to a string when this call becomes the
// leader for a miss.
func (c *Cache) Run(ctx context.Context, engine string, fn Engine, d sim.Design, cfg sim.Config) (*sim.Result, error) {
	lg := obs.FromContext(ctx)
	ks := keyScratchPool.Get().(*keyScratch)
	defer ks.release()
	ks.d, ks.cfg = d, cfg
	raw, err := appendKey(ks.key[:0], engine, &ks.d, &ks.cfg)
	if err != nil {
		c.mu.Lock()
		c.stats.Bypass++
		c.mu.Unlock()
		lg.Debug("simcache bypass", "engine", engine, "reason", err.Error())
		return fn(d, cfg)
	}
	ks.key = raw[:0] // keep any growth for the next pooled use

	for {
		c.mu.Lock()
		if el, ok := c.items[string(raw)]; ok {
			c.lru.MoveToFront(el)
			c.stats.Hits++
			en := el.Value.(*entry)
			c.mu.Unlock()
			lg.Debug("simcache hit", "key", short(en.key))
			return en.res, nil
		}
		if fl, ok := c.flight[string(raw)]; ok {
			c.stats.DedupHits++
			c.mu.Unlock()
			lg.Debug("simcache coalesced", "key", short(string(raw)))
			<-fl.done
			if fl.err == nil {
				return fl.res, nil
			}
			// The leader failed; retry as a fresh request rather than
			// propagating someone else's (possibly transient) error.
			lg.Debug("simcache leader failed, retrying")
			continue
		}
		key := string(raw)
		fl := &call{done: make(chan struct{})}
		c.flight[key] = fl
		c.mu.Unlock()

		// A panicking engine must not strand the flight entry: waiters
		// would block on fl.done forever. The deferred cleanup fails the
		// flight and lets the panic keep unwinding — no recover here, so
		// core's run guard sees the original panic value and stack.
		settled := false
		defer func() {
			if settled {
				return
			}
			fl.res, fl.err = nil, errLeaderPanicked
			c.mu.Lock()
			delete(c.flight, key)
			c.mu.Unlock()
			close(fl.done)
		}()

		fl.res, fl.err = c.fill(ctx, key, engine, fn, d, cfg)
		settled = true

		c.mu.Lock()
		delete(c.flight, key)
		if fl.err == nil {
			c.insert(key, fl.res)
		}
		c.mu.Unlock()
		close(fl.done)
		return fl.res, fl.err
	}
}

// errLeaderPanicked is what waiters coalesced onto a panicking leader
// observe; they treat it like any leader failure and retry fresh.
var errLeaderPanicked = errors.New("simcache: in-flight leader panicked")

// short truncates a fingerprint for log lines: enough to correlate, not
// enough to drown the output.
func short(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// fill resolves a miss: disk tier first, then the remote (peer) tier, then
// the engine. Called without the lock held; the single-flight entry
// guarantees exclusivity per key. A result simulated here is replicated to
// the remote tier synchronously, before the caller observes it — the
// ordering that makes a fleet-wide repeat of this point a peer hit rather
// than a re-simulation.
func (c *Cache) fill(ctx context.Context, key, engine string, fn Engine, d sim.Design, cfg sim.Config) (*sim.Result, error) {
	lg := obs.FromContext(ctx)
	if res, ok := c.loadDisk(ctx, key, engine); ok {
		c.mu.Lock()
		c.stats.DiskHits++
		c.mu.Unlock()
		lg.Debug("simcache disk hit", "key", short(key))
		return res, nil
	}
	rem := c.remote()
	if rem != nil {
		if res, ok := rem.Fetch(ctx, key, engine); ok {
			c.mu.Lock()
			c.stats.RemoteHits++
			c.mu.Unlock()
			lg.Debug("simcache remote hit", "key", short(key))
			c.storeDisk(key, engine, res)
			return res, nil
		}
	}
	start := time.Now()
	res, err := fn(d, cfg)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
	lg.Debug("simcache miss", "key", short(key), "engine", engine,
		"sim_ms", float64(time.Since(start).Microseconds())/1e3)
	c.storeDisk(key, engine, res)
	if rem != nil {
		rem.Store(ctx, key, engine, res)
	}
	return res, nil
}

// insert adds a result to the LRU tier, evicting past capacity. Caller
// holds c.mu.
func (c *Cache) insert(key string, res *sim.Result) {
	if el, ok := c.items[key]; ok {
		c.lru.MoveToFront(el)
		el.Value.(*entry).res = res
		return
	}
	c.items[key] = c.lru.PushFront(&entry{key: key, res: res})
	for c.lru.Len() > c.capacity {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.items, oldest.Value.(*entry).key)
		c.stats.Evictions++
	}
}

// diskEntry is the on-disk JSON shape. The engine name is stored redundantly
// (it is already part of the key) so cache files are self-describing.
type diskEntry struct {
	Engine string      `json:"engine"`
	Result *sim.Result `json:"result"`
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

func (c *Cache) loadDisk(ctx context.Context, key, engine string) (*sim.Result, bool) {
	if c.dir == "" {
		return nil, false
	}
	b, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	var de diskEntry
	if err := json.Unmarshal(b, &de); err != nil || de.Result == nil {
		// Corrupt or truncated entry (torn write, disk fault): quarantine
		// it so the next request doesn't re-read the junk, and count it —
		// the run itself proceeds as a plain miss.
		c.quarantine(ctx, key, err)
		return nil, false
	}
	if de.Engine != engine {
		// Well-formed entry for a different engine: a key collision, not
		// corruption. Leave it alone and treat as a miss.
		return nil, false
	}
	return de.Result, true
}

// quarantine renames a corrupt disk entry to *.bad so it stops shadowing
// the key, logs the event at warn, and counts it in Stats.DiskCorrupt.
func (c *Cache) quarantine(ctx context.Context, key string, cause error) {
	p := c.path(key)
	reason := "nil result"
	if cause != nil {
		reason = cause.Error()
	}
	if err := os.Rename(p, p+".bad"); err != nil {
		// Removal beats leaving the corrupt file to fail every lookup.
		os.Remove(p)
	}
	c.mu.Lock()
	c.stats.DiskCorrupt++
	c.mu.Unlock()
	obs.FromContext(ctx).Warn("simcache disk entry corrupt, quarantined",
		"key", short(key), "path", p+".bad", "reason", reason)
}

// storeDisk persists best-effort: a result that cannot be marshalled (or a
// full disk) costs a future re-simulation, not a failed request.
func (c *Cache) storeDisk(key, engine string, res *sim.Result) {
	if c.dir == "" {
		return
	}
	b, err := json.Marshal(diskEntry{Engine: engine, Result: res})
	if err != nil {
		return
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return
	}
	// Write to a private temp file and rename so concurrent processes
	// sharing a cache dir never observe a torn entry.
	tmp, err := os.CreateTemp(c.dir, key+".tmp*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(b)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return
	}
	c.mu.Lock()
	c.stats.DiskWrites++
	c.mu.Unlock()
}

// RegisterMetrics publishes the cache counters into an obs.Registry under
// the given metric-name prefix (e.g. "ehdoed_simcache"): callback readers
// over the cache's own stats, so there is exactly one source of truth and
// /metrics is rendered solely by the registry.
func (c *Cache) RegisterMetrics(reg *obs.Registry, prefix string) {
	counter := func(name, help string, get func(Stats) uint64) {
		reg.CounterFunc(prefix+"_"+name+"_total", help, func() float64 {
			return float64(get(c.Stats()))
		})
	}
	counter("hits", "Simulations answered from the in-memory tier.", func(s Stats) uint64 { return s.Hits })
	counter("misses", "Simulations executed on a cache miss.", func(s Stats) uint64 { return s.Misses })
	counter("dedup", "Requests that joined an identical in-flight run.", func(s Stats) uint64 { return s.DedupHits })
	counter("evictions", "LRU entries dropped past capacity.", func(s Stats) uint64 { return s.Evictions })
	counter("disk_hits", "Simulations answered from the disk tier.", func(s Stats) uint64 { return s.DiskHits })
	counter("disk_writes", "Entries persisted to the disk tier.", func(s Stats) uint64 { return s.DiskWrites })
	counter("disk_corrupt", "Corrupt disk entries quarantined.", func(s Stats) uint64 { return s.DiskCorrupt })
	counter("bypass", "Unhashable requests run directly.", func(s Stats) uint64 { return s.Bypass })
	counter("remote_hits", "Simulations answered by the remote (peer) tier.", func(s Stats) uint64 { return s.RemoteHits })
	reg.GaugeFunc(prefix+"_entries", "Current in-memory cache entries.", func() float64 {
		return float64(c.Stats().Entries)
	})
}
