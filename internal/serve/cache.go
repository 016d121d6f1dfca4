package serve

import (
	"container/list"
	"fmt"
	"sync"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// cacheKey addresses one compiled pipeline: the content digest of the
// canonical model JSON plus the scheduling parameters. Everything derived
// from the same (model, M, heuristic) triple — validated network, task
// graph, static schedule, compiled plan, pooled run states, per-frame
// input tables — hangs off the one Entry stored under this key.
type cacheKey struct {
	digest    string
	m         int
	heuristic string
}

// Entry is one cached compile pipeline. The artifacts (TG, Schedule, Plan)
// are immutable after compile — plan immutability is enforced repo-wide by
// the planfreeze analyzer — so one Entry safely serves any number of
// concurrent requests; all per-run mutable state lives in the pooled
// RunStates.
type Entry struct {
	// Model is the canonicalized, digested source model.
	Model *cli.Model
	// TG is the derived task graph.
	TG *taskgraph.TaskGraph
	// Schedule is the static schedule on M processors.
	Schedule *sched.Schedule
	// Plan is the compiled execution plan.
	Plan *plan.Plan
	// Feasible records Schedule.Validate() == nil at compile time.
	Feasible bool
	// CompileTime is the wall time of the full parse-to-plan pipeline.
	CompileTime time.Duration

	cost    int64
	metrics *Metrics

	// pools and inputs are the frames-keyed sub-caches: pools maps a
	// frame count to the *sync.Pool of RunStates for runs of that shape,
	// so a recycled state's arena, ring and output-slice sizes match the
	// next request and states never ping-pong between frame counts;
	// inputs maps it to the shared input table.
	pools  sync.Map
	inputs sync.Map
}

// entryBaseCost approximates the fixed footprint of a cached pipeline and
// entryJobCost the per-job footprint of the task graph + plan tables. Every
// table is linear in the jobs (the task graph keeps its reduced edges and
// no reachability index), so the LRU evicts by the sum, and one 100k-job
// scale entry weighs as much as ~100 small app entries.
const (
	entryBaseCost = int64(1) << 16
	entryJobCost  = int64(512)
)

// replay runs cfg once on a RunState from the entry's pool for
// cfg.Frames, creating one when the pool is empty, and hands the report
// to use before the state goes back to the pool. Warm states carry their
// arenas, FIFO rings and output slices from previous runs, so steady-state
// requests replay on the zero-alloc path. The report aliases the state's
// arenas and is valid only inside use: use must copy out what it keeps.
func (e *Entry) replay(cfg plan.Config, concurrent bool, use func(*plan.Report)) error {
	p, ok := e.pools.Load(cfg.Frames)
	if !ok {
		p, _ = e.pools.LoadOrStore(cfg.Frames, &sync.Pool{})
	}
	pool := p.(*sync.Pool)
	rs, ok := pool.Get().(*plan.RunState)
	if !ok {
		e.metrics.StatesCreated.Add(1)
		rs = e.Plan.NewRunState()
	}
	rs.Acquire()
	run := rs.Run
	if concurrent {
		run = rs.RunConcurrent
	}
	rep, err := run(cfg)
	if err == nil {
		use(rep)
	}
	if rs.Release() {
		pool.Put(rs)
	}
	return err
}

// inputsFor returns the model's deterministic external-input samples for
// a run of the given frame count, built on first use and shared by every
// request: the data machine reads input slices without mutating them, so
// one table serves concurrent runs. Concurrent first uses may each build
// the table; the build is deterministic and the first stored one wins.
func (e *Entry) inputsFor(frames int) map[string][]core.Value {
	if in, ok := e.inputs.Load(frames); ok {
		return in.(map[string][]core.Value)
	}
	in, _ := e.inputs.LoadOrStore(frames, e.Model.Inputs(frames))
	return in.(map[string][]core.Value)
}

// flight is one in-progress compile that concurrent misses for the same
// key wait on instead of compiling again.
type flight struct {
	done  chan struct{}
	entry *Entry
	err   error
}

// Cache is the content-addressed compile cache: a cost-aware LRU with
// singleflight on misses. Safe for concurrent use. Its mu is the serve
// package's only mutex (see the package doc).
type Cache struct {
	budget  int64
	metrics *Metrics

	mu       sync.Mutex
	entries  map[cacheKey]*list.Element
	lru      *list.List // front = most recently used; elements hold *cacheItem
	used     int64
	inflight map[cacheKey]*flight
}

type cacheItem struct {
	key   cacheKey
	entry *Entry
}

func newCache(budget int64, metrics *Metrics) *Cache {
	return &Cache{
		budget:   budget,
		metrics:  metrics,
		entries:  make(map[cacheKey]*list.Element),
		lru:      list.New(),
		inflight: make(map[cacheKey]*flight),
	}
}

// GetOrCompile returns the entry for key, compiling it at most once no
// matter how many requests miss concurrently: the first miss runs compile,
// every other waits on the same flight and shares its result (or error).
// hit reports whether the entry came straight from the LRU. A compile that
// panics still releases its flight: the waiters get an error naming the
// panic, the key compiles afresh on the next miss, and the panic goes on
// up the leader's stack.
func (c *Cache) GetOrCompile(key cacheKey, compile func() (*Entry, error)) (e *Entry, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.metrics.Hits.Add(1)
		e = el.Value.(*cacheItem).entry
		c.mu.Unlock()
		return e, true, nil
	}
	if fl, ok := c.inflight[key]; ok {
		c.metrics.Coalesced.Add(1)
		c.mu.Unlock()
		<-fl.done
		return fl.entry, false, fl.err
	}
	fl := &flight{done: make(chan struct{})}
	c.inflight[key] = fl
	c.metrics.Misses.Add(1)
	c.mu.Unlock()

	defer func() {
		if v := recover(); v != nil {
			fl.entry, fl.err = nil, fmt.Errorf("serve: compile panicked: %v", v)
			c.land(key, fl)
			panic(v)
		}
	}()
	fl.entry, fl.err = compile()
	c.land(key, fl)
	return fl.entry, false, fl.err
}

// land ends a flight: it caches a successful compile, drops the flight so
// the next miss compiles again, and wakes the waiters.
func (c *Cache) land(key cacheKey, fl *flight) {
	c.mu.Lock()
	delete(c.inflight, key)
	if fl.err == nil {
		c.insertLocked(key, fl.entry)
	}
	c.mu.Unlock()
	close(fl.done)
}

// insertLocked adds a freshly compiled entry and evicts from the LRU tail
// until the cost budget holds again. The newest entry itself is never
// evicted — a model bigger than the whole budget still serves, it just
// won't share the cache with anyone.
func (c *Cache) insertLocked(key cacheKey, e *Entry) {
	el := c.lru.PushFront(&cacheItem{key: key, entry: e})
	c.entries[key] = el
	c.used += e.cost
	for c.used > c.budget && c.lru.Len() > 1 {
		back := c.lru.Back()
		item := back.Value.(*cacheItem)
		c.lru.Remove(back)
		delete(c.entries, item.key)
		c.used -= item.entry.cost
		c.metrics.Evictions.Add(1)
	}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Used returns the summed cost of the cached entries.
func (c *Cache) Used() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}
