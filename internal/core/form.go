package core

import (
	"bytes"
	"fmt"
	"slices"

	"flexio/internal/datatype"
	"flexio/internal/mpiio"
	"flexio/internal/realm"
)

// requestForm is how a rank describes its access to the aggregators, which
// with the realms is all that separates ROMIO's two-phase code from the
// flexible design (the paper's §1 items 1 and 2). The form decides what
// describing the access costs, what a rank sends each aggregator, how an
// aggregator decodes and checks what it received, how a node leader turns a
// member's request into merge runs, and whether the round count is agreed or
// computed; run and the round executor are the same for both.
type requestForm uint8

const (
	// flatRequests is the paper's: the access as a flattened filetype (D
	// pairs, O(D) on the wire), the same request to every aggregator, which
	// intersects it with its realm. Realms can end anywhere, so the ranks
	// agree on the round count.
	flatRequests requestForm = iota
	// listRequests is ROMIO's: the whole access flattened into its M
	// offset/length pairs, split at the boundaries of the even file domains,
	// each aggregator sent its share (O(M) on the wire, O(M) to plan, charged
	// by the pair). Every rank computes the round count from the domain size.
	listRequests
)

// access describes this rank's access in its form, charging what that costs,
// and returns it with its bounds ([st, en); st > en when empty). The list
// form's pairs are kept only as long as the planning scratch, so its acc is
// left empty for whoever needs them to fetch (rankScratch.flattened).
func (i *Impl) access(f *mpiio.File, scr *rankScratch, dataLen int64) (acc datatype.Flat, st, en int64) {
	view := f.View()
	if i.form == listRequests {
		// A repeated access replays the flattening's charge.
		l := &scr.last
		if l.ft != view.Filetype || l.disp != view.Disp || l.dataLen != dataLen {
			l.ft, l.disp, l.dataLen, l.st, l.en = view.Filetype, view.Disp, dataLen, 1<<62, -1
			scr.miss.mine, l.work = f.AppendAccess(scr.miss.mine[:0], dataLen)
			if n := len(scr.miss.mine); n > 0 {
				l.st, l.en = scr.miss.mine[0].Off, scr.miss.mine[n-1].End()
			}
		}
		f.ChargePairs(l.work)
		return acc, l.st, l.en
	}
	st, en = 1<<62, -1
	if ftSize := view.Filetype.Size(); dataLen > 0 && ftSize > 0 {
		acc = datatype.FlatOf(view.Filetype, view.Disp, (dataLen+ftSize-1)/ftSize)
		acc.Limit = dataLen
		st, en = f.AccessBounds(dataLen)
	} else {
		acc = datatype.FlatOf(datatype.Bytes(0), view.Disp, 0)
		acc.Limit = 0
	}
	f.ChargePairs(int64(len(acc.Segs)))
	return acc, st, en
}

// flattened is the list form's access for a rank that needs the pairs
// themselves (a client miss, a member's request to its leader). A full memo
// hit drops them with the planning scratch; they come back here, charged
// once already.
func (scr *rankScratch) flattened(f *mpiio.File, dataLen int64) datatype.Flat {
	if len(scr.miss.mine) == 0 && dataLen > 0 {
		scr.miss.mine, _ = f.AppendAccess(scr.miss.mine[:0], dataLen)
	}
	return datatype.Flat{Count: 1, Limit: -1, Segs: scr.miss.mine}
}

// appendAccess encodes the whole access acc, as a member hands it to its
// node leader.
func (fm requestForm) appendAccess(dst []byte, acc datatype.Flat) []byte {
	if fm == listRequests {
		return datatype.AppendSegsEncoding(dst, acc.Segs)
	}
	return acc.AppendEncode(dst)
}

// runs appends the contiguous runs of the access a member's request encodes,
// tagged with participant part; an encoding that does not decode is an error.
func (fm requestForm) runs(items []datatype.MergeItem, enc []byte, part int) ([]datatype.MergeItem, error) {
	if fm == listRequests {
		segs, err := datatype.DecodeSegs(enc)
		if err != nil {
			return items, err
		}
		return datatype.AppendSegRuns(items, segs, part), nil
	}
	fl, err := datatype.DecodeFlat(enc)
	if err != nil {
		return items, err
	}
	return datatype.AppendFlatRuns(items, fl, part), nil
}

// planClient builds ce afresh for the access acc: the request sent to each
// aggregator, the stream ranges exchanged with it per round, and the pair
// charges. end is the end of the aggregate access region.
func (i *Impl) planClient(ms *planScratch, ce *clientEntry, acc datatype.Flat, realms []realm.Realm, end, cb, dataLen int64) {
	ce.pieces.Start(len(realms))
	ce.charges, ce.encs = ce.charges[:0], ce.encs[:0]
	if i.form == listRequests {
		ms.split(ce, acc.Segs, realms, end, cb)
		return
	}
	ce.enc = acc.AppendEncode(ce.enc[:0])
	if dataLen > 0 {
		i.clientPieces(ms, ce, acc, realms, cb)
	}
}

// clientMiss finds or builds this rank's client entry after an exact miss:
// under rebases, the entry of the same request shape at another displacement,
// rebased when its access moved past no cut of any realm (rebase.go), or a
// fresh plan in the least recently used slot. An equal access through a new
// type object at the same displacement plans afresh, as it always has. end is
// the end of the aggregate access region.
func (i *Impl) clientMiss(scr *rankScratch, ck clientKey, acc datatype.Flat, realms []realm.Realm, end, cb, dataLen int64) (*clientEntry, memoOutcome) {
	if i.rebases() {
		ms := &scr.miss
		ms.enc = acc.AppendEncode(ms.enc[:0])
		_, ce := scr.clients.Find(func(k *clientKey, e *clientEntry) bool {
			return k.cb == ck.cb && k.naggs == ck.naggs && k.sig == ck.sig &&
				len(e.enc) == len(ms.enc) && dispOf(e.enc) != acc.Disp && bytes.Equal(e.enc[8:], ms.enc[8:])
		})
		if ce != nil && rebasableClient(acc, realms, cb, acc.Disp-dispOf(ce.enc)) {
			scr.clients.Claim(ce)
			ce.enc = append(ce.enc[:0], ms.enc...)
			return ce, memoRebase
		}
	}
	ce := scr.clients.Evict()
	i.planClient(&scr.miss, ce, acc, realms, end, cb, dataLen)
	return ce, memoMiss
}

// checkClient is the Validate cross-check of a client hit or rebase: ce must
// equal a fresh build for the access acc. The error seeds the first
// agreement, as checkPlans' does.
func (i *Impl) checkClient(ms *planScratch, ce *clientEntry, acc datatype.Flat, realms []realm.Realm, end, cb, dataLen int64) error {
	var fresh clientEntry
	i.planClient(ms, &fresh, acc, realms, end, cb, dataLen)
	if !fresh.equal(ce) {
		return fmt.Errorf("core: memoized client plan differs from a fresh build")
	}
	return nil
}

// split is the list form's client side: it splits an offset-sorted access at
// the domain boundaries and encodes each aggregator's share as its request.
// The domains ascend, so the shares follow one another in the access and in
// the stream its bytes occupy back to back; each share is cut again at its
// domain's round windows, which gives the stream range the aggregator
// receives (or sends back) per round. The last domain takes whatever lies
// beyond. Splitting costs a pair per pair.
func (ms *planScratch) split(ce *clientEntry, segs []datatype.Seg, realms []realm.Realm, end, cb int64) {
	ce.charges = append(ce.charges, int64(len(segs)))
	naggs := len(realms)
	enc, ends, share, pieces := ce.enc[:0], ms.ends[:0], ms.share[:0], ms.pieces[:0]
	a := 0
	lo, hi := domain(realms, 0, end)
	seal := func() {
		enc = datatype.AppendSegsEncoding(enc, share)
		ends = append(ends, len(enc))
		ce.pieces.Add(pieces)
		share, pieces = share[:0], pieces[:0]
		a++
		if a < naggs {
			lo, hi = domain(realms, a, end)
		}
	}
	var pos int64 // stream position of the next byte
	for _, s := range segs {
		for off := s.Off; off < s.End(); {
			for a < naggs-1 && off >= hi {
				seal()
			}
			e := s.End()
			if a < naggs-1 {
				e = min(e, hi)
			}
			share = append(share, datatype.Seg{Off: off, Len: e - off})
			for off < e {
				r := (off - lo) / cb
				n := min(e, lo+(r+1)*cb) - off
				pieces = append(pieces, datatype.Piece{Round: int(r), File: datatype.Seg{Off: off, Len: n}, AStream: pos})
				off, pos = off+n, pos+n
			}
		}
	}
	for a < naggs {
		seal()
	}
	at := 0
	ce.encs = slices.Grow(ce.encs, naggs)
	for _, e := range ends {
		ce.encs, at = append(ce.encs, enc[at:e:e]), e
	}
	ms.ends, ms.share, ms.pieces, ce.enc = ends, share, pieces, enc
}

// domain is aggregator a's file domain under the list form: its realm up to
// the next one, or to end, the end of the aggregate access region; lo >= hi
// when the region ran out before it.
func domain(realms []realm.Realm, a int, end int64) (lo, hi int64) {
	lo, hi = realms[a].Disp, end
	if a+1 < len(realms) {
		hi = min(hi, realms[a+1].Disp)
	}
	return lo, hi
}

// decode turns the request messages an aggregator received into accesses in
// ms, and counts the pairs they hold. A nil message stands in an empty access
// so the collective keeps its structure through to the next agreement point;
// deserting here would strand the surviving ranks. A message that does not
// decode gets the same stand-in, and so does a list with pairs outside this
// aggregator's domain [lo, hi) (the flat form's requests are checked against
// the aggregate access region when intersected instead); the first such error
// is returned for that agreement to carry.
func (fm requestForm) decode(ms *planScratch, msgs [][]byte, lo, hi int64) (flats []datatype.Flat, pairs int64, bad error) {
	ms.flats, ms.reqSegs = slices.Grow(ms.flats[:0], len(msgs))[:len(msgs)], ms.reqSegs[:0]
	flats = ms.flats
	for c, msg := range msgs {
		flats[c] = noAccess
		if msg == nil {
			continue
		}
		var err error
		if fm == flatRequests {
			flats[c], ms.reqSegs, err = datatype.DecodeFlatAppend(msg, ms.reqSegs)
			if err == nil && flats[c].Count < 0 {
				err = fmt.Errorf("unbounded access (count %d)", flats[c].Count)
			}
		} else {
			at := len(ms.reqSegs)
			ms.reqSegs, err = datatype.DecodeSegsAppend(msg, ms.reqSegs)
			req := ms.reqSegs[at:len(ms.reqSegs):len(ms.reqSegs)]
			if n := len(req); err == nil && n > 0 {
				if req[0].Off < lo || req[n-1].End() > hi {
					err = fmt.Errorf("pairs [%d,%d) outside file domain [%d,%d)", req[0].Off, req[n-1].End(), lo, hi)
				} else {
					pairs += int64(n)
					flats[c] = datatype.Flat{Extent: req[n-1].End(), Count: 1, Limit: -1, Segs: req}
				}
			}
		}
		if err != nil {
			flats[c] = noAccess
			if bad == nil {
				bad = fmt.Errorf("core: bad request from rank %d: %w", c, err)
			}
		}
	}
	return flats, pairs, bad
}
