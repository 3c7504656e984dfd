package kernel

// Parsed-program cache: the same cell sources run over and over
// (analysts re-run cells; attack simulations re-run fixed payloads),
// so the manager keeps a bounded LRU of parsed minilang programs keyed
// by the SHA-256 of the source. A hit skips the parse. Interp.Run is
// exactly Parse followed by RunProgram, and RunProgram never mutates
// the program, so routing Execute through the cache changes nothing a
// cell can observe.

import (
	"container/list"
	"crypto/sha256"
	"sync"

	"repro/internal/kernel/minilang"
)

// defaultProgCacheCap bounds the manager-wide program cache. Programs
// are small (an AST per cell source), so the bound is about keeping
// pathological fleets — thousands of distinct one-shot cells — from
// holding every AST ever parsed.
const defaultProgCacheCap = 256

type progCacheEntry struct {
	key  [sha256.Size]byte
	prog *minilang.Program
}

// progCache is a mutex-guarded LRU: hot sources stay parsed, one-shot
// sources age out. Shared by every kernel of a manager.
type progCache struct {
	mu      sync.Mutex
	cap     int
	entries map[[sha256.Size]byte]*list.Element
	lru     *list.List // front = most recently used

	hits, misses uint64
}

func newProgCache(capacity int) *progCache {
	return &progCache{
		cap:     capacity,
		entries: make(map[[sha256.Size]byte]*list.Element, capacity),
		lru:     list.New(),
	}
}

// program returns the parsed form of src, parsing at most once per
// distinct source while it stays resident. The returned program is
// shared — callers must treat it as immutable, which
// Interp.RunProgram guarantees. hit reports whether the parse was skipped. A source
// that fails to parse is not cached: the syntax error is the caller's
// to surface, and retrying a corrected cell must not see a stale
// failure.
func (c *progCache) program(src string) (prog *minilang.Program, hit bool, err error) {
	key := sha256.Sum256([]byte(src))
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		prog = el.Value.(*progCacheEntry).prog
		c.mu.Unlock()
		return prog, true, nil
	}
	c.misses++
	c.mu.Unlock()

	// Parse outside the lock: a slow parse of one giant cell must not
	// stall every other kernel's hit path. A racing parse of the same
	// source wastes one parse and the second insert wins harmlessly.
	prog, err = minilang.Parse(src)
	if err != nil {
		return nil, false, err
	}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		// Lost the race; share the winner's program.
		c.lru.MoveToFront(el)
		prog = el.Value.(*progCacheEntry).prog
	} else {
		c.entries[key] = c.lru.PushFront(&progCacheEntry{key: key, prog: prog})
		if c.lru.Len() > c.cap {
			oldest := c.lru.Back()
			c.lru.Remove(oldest)
			delete(c.entries, oldest.Value.(*progCacheEntry).key)
		}
	}
	c.mu.Unlock()
	return prog, false, nil
}

// stats returns cumulative hit/miss counters.
func (c *progCache) stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// len returns the number of resident programs.
func (c *progCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
