package core_test

import (
	"testing"

	"flexio/internal/core"
	"flexio/internal/datatype"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/sim"
)

// TestJournalledOverwriteSameLayoutWrites is the regression test for the
// checkpoint pattern: the same journalled engine writes the same file
// region twice, so the second collective runs under the realm epoch the
// first one committed its rounds in. Every one of its writes must still
// reach storage — the journal's round skips apply only to a resume of an
// aborted attempt, never to a fresh collective that happens to share the
// layout. (Before the fix, the second write found all rounds "done" and
// was skipped wholesale, silently keeping the first checkpoint's bytes.)
func TestJournalledOverwriteSameLayoutWrites(t *testing.T) {
	const (
		ranks  = 4
		blk    = 64
		counts = 32
	)
	mkColl := map[string]func(*mpiio.WriteJournal) mpiio.Collective{
		"core": func(j *mpiio.WriteJournal) mpiio.Collective {
			return core.New(core.Options{Journal: j})
		},
		"twophase": func(j *mpiio.WriteJournal) mpiio.Collective {
			return core.ROMIO(core.Options{Journal: j})
		},
	}
	for name, mk := range mkColl {
		t.Run(name, func(t *testing.T) {
			cfg := sim.DefaultConfig()
			w := mpi.NewWorld(ranks, cfg)
			fs := pfs.NewFileSystem(cfg)
			journal := mpiio.NewWriteJournal()
			coll := mk(journal)

			write := func(pattern byte) {
				w.Run(func(p *mpi.Proc) {
					f, err := mpiio.Open(p, fs, "ckpt.dat", mpiio.Info{
						Collective:  coll,
						CollBufSize: 1024, // several rounds per collective
					})
					if err != nil {
						t.Errorf("rank %d: open: %v", p.Rank(), err)
						return
					}
					ft := datatype.Must(datatype.Resized(datatype.Bytes(blk), blk*ranks))
					f.SetView(int64(p.Rank())*blk, datatype.Bytes(1), ft)
					buf := make([]byte, blk*counts)
					for i := range buf {
						buf[i] = pattern ^ byte(p.Rank()*31+i)
					}
					if err := f.WriteAll(buf, datatype.Bytes(blk), counts); err != nil {
						t.Errorf("rank %d: write: %v", p.Rank(), err)
					}
					f.Close()
				})
			}
			write(0x00)
			write(0xFF) // same view, same layout, same epoch: new data

			want := make([]byte, blk*counts*ranks)
			for r := 0; r < ranks; r++ {
				for k := 0; k < counts; k++ {
					for o := 0; o < blk; o++ {
						want[r*blk+k*blk*ranks+o] = 0xFF ^ byte(r*31+k*blk+o)
					}
				}
			}
			img := fs.Snapshot("ckpt.dat", int64(len(want)))
			for i := range want {
				if img[i] != want[i] {
					t.Fatalf("file byte %d = %#x, want %#x: second checkpoint was journal-skipped",
						i, img[i], want[i])
				}
			}
			if journal.Resuming() {
				t.Error("journal still resuming after a successful collective")
			}
			if n := journal.Rounds(); n != 0 {
				t.Errorf("journal kept %d commits after a successful collective", n)
			}
		})
	}
}
