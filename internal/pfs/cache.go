package pfs

import "flexio/internal/pagetab"

// pageCache tracks which (file, page) pairs a client holds locally, with
// O(1) LRU eviction at a fixed capacity. Only presence matters: the
// simulated file image is updated synchronously, so the cache influences
// timing (read hits, read-modify-write avoidance) but never data.
//
// The LRU is an intrusive doubly-linked list over a slab of nodes with a
// free list, so steady-state churn (insert evicting the oldest entry)
// recycles nodes instead of allocating: the collective write path touches
// hundreds of pages per call, and per-page allocations here dominated the
// whole datapath's allocation profile. A page finds its node through a
// page-indexed table per file id — an array index and a chunk cursor, with
// no hashing of the file name.
//
// All methods are called with the owning FileSystem's mutex held.
type pageCache struct {
	cap   int
	n     int // pages cached
	nodes []cacheNode
	free  []int32
	head  int32 // most recently used, -1 when empty
	tail  int32 // least recently used, -1 when empty
	// index[file] maps a page of that file to its node index plus one
	// (0 = not cached).
	index []pagetab.Table[int32]
}

type cacheNode struct {
	file       int32
	page       int64
	prev, next int32
}

const nilNode = int32(-1)

func newPageCache(capacity int) *pageCache {
	if capacity < 0 {
		capacity = 0
	}
	return &pageCache{cap: capacity, head: nilNode, tail: nilNode}
}

// unlink detaches node i from the LRU list.
func (pc *pageCache) unlink(i int32) {
	n := &pc.nodes[i]
	if n.prev != nilNode {
		pc.nodes[n.prev].next = n.next
	} else {
		pc.head = n.next
	}
	if n.next != nilNode {
		pc.nodes[n.next].prev = n.prev
	} else {
		pc.tail = n.prev
	}
}

// pushFront makes node i the most recently used.
func (pc *pageCache) pushFront(i int32) {
	n := &pc.nodes[i]
	n.prev = nilNode
	n.next = pc.head
	if pc.head != nilNode {
		pc.nodes[pc.head].prev = i
	}
	pc.head = i
	if pc.tail == nilNode {
		pc.tail = i
	}
}

// refresh makes an already linked node i the most recently used.
func (pc *pageCache) refresh(i int32) {
	if pc.head != i {
		pc.unlink(i)
		pc.pushFront(i)
	}
}

// lookup returns the index slot of the page, nil when nothing near it was
// ever cached.
func (pc *pageCache) lookup(file int32, page int64) *int32 {
	if int(file) >= len(pc.index) {
		return nil
	}
	return pc.index[file].Peek(page)
}

// has reports whether the page is cached, refreshing its recency.
func (pc *pageCache) has(file int32, page int64) bool {
	p := pc.lookup(file, page)
	if p == nil || *p == 0 {
		return false
	}
	pc.refresh(*p - 1)
	return true
}

// put inserts the page, evicting the least recently used entry if the
// cache is full.
func (pc *pageCache) put(file int32, page int64) {
	if pc.cap == 0 {
		return
	}
	for int(file) >= len(pc.index) {
		pc.index = append(pc.index, pagetab.Table[int32]{})
	}
	p := pc.index[file].Slot(page)
	if *p != 0 {
		pc.refresh(*p - 1)
		return
	}
	var i int32
	switch {
	case pc.n >= pc.cap:
		// Recycle the evicted node in place.
		i = pc.tail
		pc.unlink(i)
		old := &pc.nodes[i]
		pc.index[old.file].Reset(old.page)
		pc.n--
	case len(pc.free) > 0:
		i = pc.free[len(pc.free)-1]
		pc.free = pc.free[:len(pc.free)-1]
	default:
		pc.nodes = append(pc.nodes, cacheNode{})
		i = int32(len(pc.nodes) - 1)
	}
	pc.nodes[i].file, pc.nodes[i].page = file, page
	pc.pushFront(i)
	*p = i + 1
	pc.n++
}

// drop removes a page (lock revocation).
func (pc *pageCache) drop(file int32, page int64) {
	p := pc.lookup(file, page)
	if p == nil || *p == 0 {
		return
	}
	i := *p - 1
	pc.unlink(i)
	pc.free = append(pc.free, i)
	*p = 0
	pc.n--
}

// reset clears the cache, keeping the node slab for reuse.
func (pc *pageCache) reset() {
	pc.nodes = pc.nodes[:0]
	pc.free = pc.free[:0]
	pc.head, pc.tail = nilNode, nilNode
	pc.n = 0
	clear(pc.index)
}

// size reports the number of cached pages (for tests).
func (pc *pageCache) size() int { return pc.n }
