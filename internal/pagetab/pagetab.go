// Package pagetab is the page-indexed table the storage layers keep their
// per-page (or per-stripe) state in: file contents and lock owners in pfs,
// a client's cache index, block checksums in integrity.
//
// Indices are dense inside an access (a request walks consecutive pages) but
// sparse across a file (a checkpoint can land one page at offset 1<<40), so
// the table is a directory of fixed-size chunks: a chunk exists once any of
// its slots was asked for with Slot, and memory follows the pages touched,
// never the file extent. The directory is hashed by integer chunk number and
// only when an access crosses into another chunk; the chunk the last call
// used is kept as a cursor, so a run of pages costs one lookup.
package pagetab

const (
	chunkShift = 6
	// ChunkLen is the number of consecutive indices one chunk holds.
	ChunkLen  = 1 << chunkShift
	chunkMask = ChunkLen - 1
)

// Table maps a non-negative index to a T. The zero Table is empty and ready
// to use; a slot never written reads as the zero T. Not safe for concurrent
// use (reads move the cursor too).
type Table[T any] struct {
	chunks map[int64]*[ChunkLen]T
	curKey int64
	cur    *[ChunkLen]T
}

// chunk returns the chunk with number k (nil when absent) and moves the
// cursor to it.
func (t *Table[T]) chunk(k int64) *[ChunkLen]T {
	if t.cur != nil && t.curKey == k {
		return t.cur
	}
	c := t.chunks[k]
	if c != nil {
		t.curKey, t.cur = k, c
	}
	return c
}

// Peek returns slot i, or nil when its chunk was never allocated — the
// read-only lookup: asking about a hole must not grow the table.
func (t *Table[T]) Peek(i int64) *T {
	if c := t.chunk(i >> chunkShift); c != nil {
		return &c[i&chunkMask]
	}
	return nil
}

// Slot returns slot i, allocating its chunk if need be.
func (t *Table[T]) Slot(i int64) *T {
	k := i >> chunkShift
	c := t.chunk(k)
	if c == nil {
		if t.chunks == nil {
			t.chunks = make(map[int64]*[ChunkLen]T)
		}
		c = new([ChunkLen]T)
		t.chunks[k] = c
		t.curKey, t.cur = k, c
	}
	return &c[i&chunkMask]
}

// Reset zeroes slot i without moving the cursor, for callers that retire an
// entry far from the run they are walking (a cache evicting its oldest page
// while inserting the newest).
func (t *Table[T]) Reset(i int64) {
	if c := t.chunks[i>>chunkShift]; c != nil {
		var zero T
		c[i&chunkMask] = zero
	}
}

// Each calls fn for every slot of every allocated chunk, zero slots
// included, in no particular order.
func (t *Table[T]) Each(fn func(i int64, v *T)) {
	for k, c := range t.chunks {
		for j := range c {
			fn(k<<chunkShift|int64(j), &c[j])
		}
	}
}

// Clear drops every chunk.
func (t *Table[T]) Clear() {
	t.chunks, t.cur = nil, nil
}

// Chunks reports how many chunks are allocated.
func (t *Table[T]) Chunks() int { return len(t.chunks) }
