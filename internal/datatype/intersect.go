package datatype

import "math"

// Piece is one contiguous overlap between an access and a file realm, split
// at collective-buffer boundaries of the realm's byte stream so that a piece
// never spans two two-phase rounds.
type Piece struct {
	Round   int
	File    Seg
	AStream int64 // position within the access's linear data stream
	RStream int64 // position within the realm's linear byte stream
}

// Intersect walks an access cursor against a realm cursor and appends every
// overlap to dst, split at cb-sized boundaries of the realm stream (cb must
// be positive). Both cursors are consumed; the caller charges
// ac.Work() + rc.Work() pairs.
//
// Succinct filetypes make this cheap for the access side: SeekOffset skips
// whole datatype instances over foreign realms. Enumerated filetypes scan
// pair by pair — the O(M)-per-aggregator cost the paper measures.
//
// The cursors end exactly where stepping them one overlap at a time (Run,
// Next, SeekOffset on whichever lags) would leave them, with the same work
// counted: the loop below is that walk, with the one stretch where it is
// predictable — the access moving through a single realm run — done on
// local copies of the positions.
func Intersect(ac, rc *Cursor, cb int64, dst []Piece) []Piece {
	for !ac.done && !rc.done {
		ao, ro := ac.Offset(), rc.Offset()
		switch {
		case ao < ro:
			if !ac.SeekOffset(ro) {
				return dst
			}
		case ro < ao:
			if !rc.SeekOffset(ao) {
				return dst
			}
		default:
			dst = ac.overlapRun(rc, cb, dst)
		}
	}
	return dst
}

// overlapRun emits the overlaps of the access with the realm cursor's
// current run. Both cursors are live and stand at the same file offset.
//
// Until the access reaches the end of the realm run the realm cursor
// finishes no pair and skips no instance: consuming part of a run and
// seeking forward inside it only move its intra-segment position, which is
// therefore tracked in a local and stored once on the way out. The piece that
// exhausts the run, and any seek past it, go through the cursor's own Next
// and SeekOffset (the latter in Intersect's loop), which count the work. The
// access cursor's stepping is Next's, on locals: a finished segment is one
// pair, a wrapped instance may end the access, and so may the data limit.
func (ac *Cursor) overlapRun(rc *Cursor, cb int64, dst []Piece) []Piece {
	pos := ac.Offset() // file offset both cursors stand at
	rs := rc.StreamPos()
	rrem := rc.Run() // what is left of the realm run, clipped at its limit
	rintra := rc.intra
	round, rrnd := rs/cb, cb-rs%cb // the round pos is in, and what is left of it

	segs, idx, inst, intra := ac.segs, ac.idx, ac.inst, ac.intra
	as := ac.StreamPos()
	alim := ac.limit
	if alim < 0 {
		alim = math.MaxInt64
	}
	base := ac.disp + inst*ac.extent
	var work int64
	done := false

	for {
		seg := segs[idx]
		n := min(seg.Len-intra, alim-as, rrem, rrnd)
		dst = append(dst, Piece{Round: int(round), File: Seg{pos, n}, AStream: as, RStream: rs})

		// The access consumes n bytes.
		intra += n
		as += n
		if intra == seg.Len {
			intra = 0
			idx++
			work++
			if idx == len(segs) {
				idx = 0
				inst++
				base += ac.extent
				done = ac.count >= 0 && inst >= ac.count
			}
		}
		done = done || as >= alim

		if n == rrem {
			// The realm run is exhausted (or its limit reached).
			rc.intra = rintra
			rc.Next(n)
			break
		}
		rintra += n
		if done {
			rc.intra = rintra
			break
		}
		// The realm follows the access to its next byte, if that is still
		// inside the run.
		next := base + segs[idx].Off + intra
		step := next - pos
		if step >= rrem {
			rc.intra = rintra
			break
		}
		rintra += step - n
		pos, rs, rrem = next, rs+step, rrem-step
		if rrnd -= step; rrnd <= 0 {
			round, rrnd = rs/cb, cb-rs%cb
		}
	}
	ac.idx, ac.inst, ac.intra, ac.done = idx, inst, intra, done
	ac.work += work
	return dst
}
