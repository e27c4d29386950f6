package pagetab

import "testing"

func TestTableSparseAndDense(t *testing.T) {
	var tab Table[int]
	if tab.Peek(5) != nil || tab.Chunks() != 0 {
		t.Fatal("empty table has slots")
	}
	far := int64(1) << 28
	for _, i := range []int64{0, 1, ChunkLen - 1, ChunkLen, 3*ChunkLen + 7, far} {
		*tab.Slot(i) = int(i) + 1
	}
	for _, i := range []int64{0, 1, ChunkLen - 1, ChunkLen, 3*ChunkLen + 7, far} {
		if p := tab.Peek(i); p == nil || *p != int(i)+1 {
			t.Fatalf("slot %d lost its value", i)
		}
	}
	if tab.Chunks() != 4 {
		t.Fatalf("%d chunks for indices in 4 chunks", tab.Chunks())
	}
	// A hole next to a written slot reads zero; a hole far from any does not
	// exist, and asking about it must not create it.
	if p := tab.Peek(2); p == nil || *p != 0 {
		t.Fatal("unwritten slot of an allocated chunk should read zero")
	}
	if tab.Peek(far/2) != nil || tab.Chunks() != 4 {
		t.Fatal("Peek allocated a chunk")
	}
	seen := 0
	tab.Each(func(i int64, v *int) {
		if *v != 0 {
			if *v != int(i)+1 {
				t.Fatalf("Each: slot %d holds %d", i, *v)
			}
			seen++
		}
	})
	if seen != 6 {
		t.Fatalf("Each visited %d written slots, want 6", seen)
	}
}

func TestResetKeepsCursor(t *testing.T) {
	var tab Table[int]
	*tab.Slot(0) = 1
	*tab.Slot(10 * ChunkLen) = 2
	p := tab.Slot(1) // cursor on chunk 0
	tab.Reset(10 * ChunkLen)
	tab.Reset(99 * ChunkLen) // no such chunk: nothing to do
	if tab.cur == nil || tab.curKey != 0 {
		t.Fatal("Reset moved the cursor")
	}
	*p = 3
	if *tab.Peek(10 * ChunkLen) != 0 || *tab.Peek(1) != 3 || *tab.Peek(0) != 1 {
		t.Fatal("Reset zeroed the wrong slot")
	}
	tab.Clear()
	if tab.Peek(0) != nil || tab.Chunks() != 0 {
		t.Fatal("Clear left slots behind")
	}
	*tab.Slot(0) = 4
	if *tab.Peek(0) != 4 {
		t.Fatal("table unusable after Clear")
	}
}
