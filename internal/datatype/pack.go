package datatype

import "fmt"

// Pack gathers the data bytes of count instances of t, laid out in buf
// starting at displacement disp, into a newly allocated contiguous stream.
// It is the memory-side analogue of walking a file view and is used to
// linearize a user buffer described by a memory datatype.
func Pack(buf []byte, t Type, disp int64, count int64) ([]byte, error) {
	total := TotalSize(t, count)
	if total < 0 {
		return nil, fmt.Errorf("datatype: Pack: unbounded count")
	}
	return AppendPack(make([]byte, 0, total), buf, t, disp, count)
}

// AppendPack is Pack into a caller-provided destination: the gathered
// bytes are appended to dst and the extended slice returned. Hot paths
// pass a pooled buffer sliced to length zero so steady-state packing
// allocates nothing.
func AppendPack(dst, buf []byte, t Type, disp int64, count int64) ([]byte, error) {
	if TotalSize(t, count) < 0 {
		return nil, fmt.Errorf("datatype: Pack: unbounded count")
	}
	need := disp + count*t.Extent()
	if count > 0 && need > int64(len(buf)) {
		return nil, fmt.Errorf("datatype: Pack: buffer too small: need %d bytes, have %d", need, len(buf))
	}
	// A plain instance-by-segment walk: no Cursor (it would be one heap
	// object and one prefix table per call for state this loop keeps in
	// two integers).
	segs, ext := t.Flatten(), t.Extent()
	for i := int64(0); i < count; i++ {
		base := disp + i*ext
		for _, s := range segs {
			dst = append(dst, buf[base+s.Off:base+s.End()]...)
		}
	}
	return dst, nil
}

// Unpack scatters a contiguous stream into buf according to count instances
// of t at displacement disp. It is the inverse of Pack. stream may be
// shorter than the full access; only len(stream) bytes are scattered.
func Unpack(stream []byte, buf []byte, t Type, disp int64, count int64) error {
	if count < 0 {
		return fmt.Errorf("datatype: Unpack: unbounded count")
	}
	need := disp + count*t.Extent()
	if count > 0 && need > int64(len(buf)) {
		return fmt.Errorf("datatype: Unpack: buffer too small: need %d bytes, have %d", need, len(buf))
	}
	if max := TotalSize(t, count); int64(len(stream)) > max {
		return fmt.Errorf("datatype: Unpack: stream of %d bytes exceeds access size %d", len(stream), max)
	}
	segs, ext := t.Flatten(), t.Extent()
	for i := int64(0); len(stream) > 0 && len(segs) > 0; i++ {
		base := disp + i*ext
		for _, s := range segs {
			n := copy(buf[base+s.Off:base+s.End()], stream)
			if stream = stream[n:]; len(stream) == 0 {
				break
			}
		}
	}
	return nil
}
