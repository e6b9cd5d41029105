package serve

import (
	"container/list"
	"sync"
)

// outcome is one computed response, cached and replayed byte-for-byte: the
// default JSON envelope, the CLI-identical rendering (schedule kind only),
// and the compact schedule document the certify and simulate endpoints
// rebuild their Schedule from. Outcomes are immutable once published.
type outcome struct {
	// envelope is the default response body (indented JSON + newline).
	envelope []byte
	// cli is the ?format=cli body: for the schedule kind, the exact bytes
	// the ftsched CLI prints with -format json. Nil for other kinds.
	cli []byte
	// schedJSON is the compact sched.Schedule encoding (schedule kind
	// only), the substrate for certify/simulate reuse.
	schedJSON []byte
}

// maxAliases bounds the raw-body digests one cache entry keeps, so the raw
// index holds at most maxAliases × capacity digests however many spellings
// of one problem clients send.
const maxAliases = 4

// lruCache is a mutex-guarded LRU of response outcomes keyed by canonical
// content hash. Only successful outcomes enter the cache; deterministic
// failures (infeasible problems, missed deadlines) are cheap to recompute
// and keeping them out makes cache poisoning through transient conditions
// impossible.
//
// A second index maps raw-body digests (see rawKey) to entries, so a
// byte-identical repeat finds its outcome without being decoded. Aliases
// live and die with their entry: the canonical key stays the cache's
// identity.
type lruCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used
	entries map[string]*list.Element
	aliases map[[32]byte]*list.Element
}

// lruEntry is one cache slot.
type lruEntry struct {
	key     string
	out     *outcome
	aliases [][32]byte // raw digests aliasing this entry, oldest first
}

// newLRUCache returns an empty cache holding at most cap outcomes; cap <= 0
// disables caching (every Get misses, Put discards).
func newLRUCache(cap int) *lruCache {
	return &lruCache{
		cap:     cap,
		order:   list.New(),
		entries: make(map[string]*list.Element),
		aliases: make(map[[32]byte]*list.Element),
	}
}

// Get returns the cached outcome for key, refreshing its recency.
func (c *lruCache) Get(key string) (*outcome, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.touch(c.entries[key])
}

// GetRaw returns the cached outcome a raw-body digest aliases, refreshing
// its recency.
func (c *lruCache) GetRaw(raw [32]byte) (*outcome, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.touch(c.aliases[raw])
}

func (c *lruCache) touch(el *list.Element) (*outcome, bool) {
	if el == nil {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).out, true
}

// Alias registers raw as a digest of the entry cached under key, dropping
// the entry's oldest alias beyond maxAliases. It does nothing when key is
// not cached (evicted, or caching disabled) or raw is already registered.
func (c *lruCache) Alias(raw [32]byte, key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return
	}
	if _, dup := c.aliases[raw]; dup {
		return
	}
	e := el.Value.(*lruEntry)
	if len(e.aliases) == maxAliases {
		delete(c.aliases, e.aliases[0])
		e.aliases = append(e.aliases[:0], e.aliases[1:]...)
	}
	e.aliases = append(e.aliases, raw)
	c.aliases[raw] = el
}

// Put inserts key -> out, evicting the least recently used entry beyond
// capacity. It reports whether an eviction happened.
func (c *lruCache) Put(key string, out *outcome) (evicted bool) {
	if c.cap <= 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		// A concurrent leader may have published first; keep the existing
		// outcome (both are byte-identical by the determinism contract).
		c.order.MoveToFront(el)
		return false
	}
	c.entries[key] = c.order.PushFront(&lruEntry{key: key, out: out})
	if c.order.Len() <= c.cap {
		return false
	}
	oldest := c.order.Remove(c.order.Back()).(*lruEntry)
	delete(c.entries, oldest.key)
	for _, raw := range oldest.aliases {
		delete(c.aliases, raw)
	}
	return true
}

// Len returns the number of cached outcomes.
func (c *lruCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// flight is one in-progress computation shared by concurrent identical
// requests: the leader computes, followers wait on done and read the
// published result.
type flight struct {
	done chan struct{}
	out  *outcome
	err  error
}

// flightGroup deduplicates concurrent computations by key (the canonical
// content hash): the first caller becomes the leader, later callers for the
// same key block until the leader publishes, then share its outcome. Keys
// are forgotten once the flight lands, so a failed computation is retried
// by the next request rather than pinned.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[string]*flight)}
}

// Do runs fn once per key among concurrent callers. It reports the shared
// outcome and whether this caller was a follower (shared someone else's
// run).
func (g *flightGroup) Do(key string, fn func() (*outcome, error)) (out *outcome, shared bool, err error) {
	g.mu.Lock()
	if f, ok := g.m[key]; ok {
		g.mu.Unlock()
		<-f.done
		return f.out, true, f.err
	}
	f := &flight{done: make(chan struct{})}
	g.m[key] = f
	g.mu.Unlock()

	f.out, f.err = fn()
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(f.done)
	return f.out, false, f.err
}
