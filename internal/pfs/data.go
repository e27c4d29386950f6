package pfs

// Data is the bytes a write moves, as one linear stream: a buffer, or a
// Source read in place (a collective buffer that is still its clients'
// memory). Slicing copies nothing and never touches the bytes or the
// caller's views; the write copies each byte once, into its page.
type Data struct {
	b      []byte
	src    Source
	lo, hi int64 // the stream's window [lo, hi) of b or of src
}

// A Source is a stream held outside one buffer. Fill copies the stream's
// bytes [at, at+len(dst)) into dst; writes ask for them in stream order,
// except that a retried or re-issued write starts over.
type Source interface {
	Fill(dst []byte, at int64)
}

// Bytes is b as Data.
func Bytes(b []byte) Data { return Data{b: b, hi: int64(len(b))} }

// From is the first n bytes of src as Data.
func From(src Source, n int64) Data { return Data{src: src, hi: n} }

// None is n bytes with no buffer behind them: the destination of a
// timing-only read, whose Buf is nil.
func None(n int64) Data { return Data{hi: n} }

// Len is the number of bytes in d.
func (d Data) Len() int64 { return d.hi - d.lo }

// Slice is d's bytes [lo, hi).
func (d Data) Slice(lo, hi int64) Data {
	if lo < 0 || hi < lo || hi > d.Len() {
		panic("pfs: Data slice out of range")
	}
	d.lo, d.hi = d.lo+lo, d.lo+hi
	return d
}

// Buf is the buffer behind d, which must not be a Source: the destination
// of a read that goes through a path shared with writes. It is nil for None.
func (d Data) Buf() []byte {
	if d.src != nil {
		panic("pfs: Buf of a Source")
	}
	if d.b == nil {
		return nil
	}
	return d.b[d.lo:d.hi]
}

// Copy fills dst, which lies inside d, with d's bytes from offset at.
func (d Data) Copy(dst []byte, at int64) {
	if d.src != nil {
		d.src.Fill(dst, d.lo+at)
	} else {
		copy(dst, d.b[d.lo+at:])
	}
}
