package wal

import "sync"

// blockCache caches fixed-size log blocks for random reads by LSN (undo,
// lock re-acquisition, SplitLSN searches). It is sharded by block index so
// concurrent readers — e.g. several snapshot-recovery workers unwinding
// different pages — do not contend on a single mutex, and each shard runs a
// second-chance (clock) eviction policy: a block touched since it was
// enqueued survives one eviction pass instead of leaving in pure FIFO order.
//
// The cache owns its memory. Each entry holds one block buffer; an eviction
// reuses the victim's entry and buffer in place, and get copies a block out
// under the shard lock. No reader ever holds a reference to a buffer the
// cache may recycle, and a full cache allocates nothing.
type blockCache struct {
	shards []*cacheShard
	mask   int64
}

type cacheShard struct {
	mu    sync.Mutex
	max   int
	items map[int64]*cacheEntry
	// ring is the clock, in insertion order; hand is the next eviction
	// candidate. A candidate whose ref bit is set is granted a second
	// chance (bit cleared, hand moves on).
	ring []*cacheEntry
	hand int
}

type cacheEntry struct {
	idx int64 // block index, -1 once cleared
	ref bool
	blk []byte // readBlockSize bytes, allocated apart to fill one size class exactly
}

// cacheShardCount picks the shard count for a cache of max blocks: enough
// shards to spread concurrent readers, but never so many that a shard holds
// fewer than 8 blocks. Always a power of two.
func cacheShardCount(max int) int {
	n := 1
	for n < 8 && max/(n*2) >= 8 {
		n *= 2
	}
	return n
}

func newBlockCache(max int) *blockCache {
	n := cacheShardCount(max)
	c := &blockCache{shards: make([]*cacheShard, n), mask: int64(n - 1)}
	per := max / n
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i] = &cacheShard{max: per, items: make(map[int64]*cacheEntry, per)}
	}
	return c
}

func (c *blockCache) shard(idx int64) *cacheShard { return c.shards[idx&c.mask] }

// get copies block idx into dst and reports whether it was cached.
func (c *blockCache) get(idx int64, dst []byte) bool {
	s := c.shard(idx)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.items[idx]
	if e == nil {
		return false
	}
	e.ref = true
	copy(dst, e.blk)
	return true
}

// put copies blk, a full block, into the cache as block idx.
func (c *blockCache) put(idx int64, blk []byte) {
	s := c.shard(idx)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.items[idx]; e != nil {
		e.ref = true
		copy(e.blk, blk)
		return
	}
	var e *cacheEntry
	if len(s.ring) < s.max {
		e = &cacheEntry{blk: make([]byte, readBlockSize)}
		s.ring = append(s.ring, e)
	} else {
		e = s.victim()
		delete(s.items, e.idx)
	}
	e.idx, e.ref = idx, false
	copy(e.blk, blk)
	s.items[idx] = e
}

// victim advances the clock hand past referenced entries, clearing their
// ref bits, and returns the first unreferenced one.
func (s *cacheShard) victim() *cacheEntry {
	for {
		e := s.ring[s.hand]
		s.hand = (s.hand + 1) % len(s.ring)
		if !e.ref {
			return e
		}
		e.ref = false
	}
}

// clear drops every cached block. The entries stay allocated, unindexed
// and unreferenced, for put to reuse as victims.
func (c *blockCache) clear() {
	for _, s := range c.shards {
		s.mu.Lock()
		clear(s.items)
		for _, e := range s.ring {
			e.idx, e.ref = -1, false
		}
		s.mu.Unlock()
	}
}
