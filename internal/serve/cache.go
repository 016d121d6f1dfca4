package serve

import (
	"container/list"
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

	// mu guards the frames-keyed sub-caches below. Pools are bucketed by
	// frame count so a recycled RunState's arena, ring and output-slice
	// sizes match the next request of the same shape — states never
	// ping-pong between frame counts.
	mu     sync.Mutex
	pools  map[int]*sync.Pool
	inputs map[int]map[string][]core.Value
}

// entryBaseCost approximates the fixed footprint of a cached pipeline and
// entryJobCost the per-job footprint of the task graph + plan tables; the
// LRU evicts by the sum, so one 100k-job scale entry weighs as much as
// ~100 small app entries.
const (
	entryBaseCost = int64(1) << 16
	entryJobCost  = int64(512)
)

// AcquireState checks a RunState for the given frame count out of the
// entry's free pool, creating one when the pool is empty. Warm states
// carry their arenas, FIFO rings and output slices from previous runs, so
// steady-state requests replay on the zero-alloc path.
func (e *Entry) AcquireState(frames int) *plan.RunState {
	e.mu.Lock()
	p, ok := e.pools[frames]
	if !ok {
		p = &sync.Pool{}
		e.pools[frames] = p
	}
	e.mu.Unlock()
	rs, ok := p.Get().(*plan.RunState)
	if !ok {
		e.metrics.StatesCreated.Add(1)
		rs = e.Plan.NewRunState()
	}
	rs.Acquire()
	return rs
}

// ReleaseState returns a state to the pool it was acquired from. The
// hand-back is idempotent: RunState.Release accepts only the first call
// after an Acquire, so a double release cannot hand the same state to two
// concurrent requests. Callers must not touch the run's *Report after this
// point — it aliases the state's arenas.
func (e *Entry) ReleaseState(frames int, rs *plan.RunState) {
	if !rs.Release() {
		return
	}
	e.mu.Lock()
	p := e.pools[frames]
	e.mu.Unlock()
	if p != nil {
		p.Put(rs)
	}
}

// InputsFor returns the model's deterministic external-input samples for a
// run of the given frame count, built once per frame count and shared by
// every request: the data machine reads input slices without mutating
// them, so one table serves concurrent runs.
func (e *Entry) InputsFor(frames int) map[string][]core.Value {
	e.mu.Lock()
	defer e.mu.Unlock()
	if in, ok := e.inputs[frames]; ok {
		return in
	}
	in := e.Model.Inputs(frames)
	e.inputs[frames] = in
	return in
}

// flight is one in-progress compile that concurrent misses for the same
// key wait on instead of compiling again.
type flight struct {
	done  chan struct{}
	entry *Entry
	err   error
}

// Cache is the content-addressed compile cache: a cost-aware LRU with
// singleflight on misses. Safe for concurrent use.
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
// hit reports whether the entry came straight from the LRU.
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

	fl.entry, fl.err = compile()

	c.mu.Lock()
	delete(c.inflight, key)
	if fl.err == nil {
		c.insertLocked(key, fl.entry)
	}
	c.mu.Unlock()
	close(fl.done)
	return fl.entry, false, fl.err
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
