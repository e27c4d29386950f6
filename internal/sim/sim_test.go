package sim

import (
	"strings"
	"testing"
)

// The per-byte charges below price every checksum pass, buffer copy and
// message of the simulation; a change here moves every golden listing.

func TestChecksumTime(t *testing.T) {
	c := DefaultConfig()
	if got, want := c.ChecksumTime(4096), Time(4096/4.8e9); got != want {
		t.Errorf("ChecksumTime(4096) = %v, want %v", got, want)
	}
	if got, want := c.ChecksumTime(4<<20), Time((4<<20)/4.8e9); got != want {
		t.Errorf("ChecksumTime(4 MiB) = %v, want %v", got, want)
	}
	if got := c.ChecksumTime(4096); got >= c.MemcpyTime(4096) {
		t.Errorf("a checksum pass (%v) must be cheaper than a copy (%v)", got, c.MemcpyTime(4096))
	}
	for _, n := range []int64{0, -1} {
		if got := c.ChecksumTime(n); got != 0 {
			t.Errorf("ChecksumTime(%d) = %v, want 0", n, got)
		}
	}
	// No checksum bandwidth: a pass is priced like a copy.
	c.ChecksumBandwidth = 0
	for _, n := range []int64{1, 4096, 3 << 20} {
		if got, want := c.ChecksumTime(n), c.MemcpyTime(n); got != want {
			t.Errorf("ChecksumTime(%d) without ChecksumBandwidth = %v, want MemcpyTime %v", n, got, want)
		}
	}
}

func TestMemcpyTime(t *testing.T) {
	c := DefaultConfig()
	if got, want := c.MemcpyTime(4096), Time(4096/1.2e9); got != want {
		t.Errorf("MemcpyTime(4096) = %v, want %v", got, want)
	}
	for _, n := range []int64{0, -5} {
		if got := c.MemcpyTime(n); got != 0 {
			t.Errorf("MemcpyTime(%d) = %v, want 0", n, got)
		}
	}
}

func TestTransferTime(t *testing.T) {
	c := DefaultConfig()
	if got, want := c.TransferTime(1<<20), Time((1<<20)/110e6); got != want {
		t.Errorf("TransferTime(1 MiB) = %v, want %v", got, want)
	}
	for _, n := range []int64{0, -5} {
		if got := c.TransferTime(n); got != 0 {
			t.Errorf("TransferTime(%d) = %v, want 0", n, got)
		}
	}
}

func TestValidateChecksumBandwidth(t *testing.T) {
	c := DefaultConfig()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config: %v", err)
	}
	c.ChecksumBandwidth = 0
	if err := c.Validate(); err != nil {
		t.Errorf("zero ChecksumBandwidth (copy-priced checksums) rejected: %v", err)
	}
	c.ChecksumBandwidth = -1
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "ChecksumBandwidth") {
		t.Errorf("negative ChecksumBandwidth: err = %v, want one naming ChecksumBandwidth", err)
	}
}

func TestPairTime(t *testing.T) {
	c := DefaultConfig()
	if got, want := c.PairTime(1000), Time(float64(1000))*c.PairProcessCost; got != want {
		t.Errorf("PairTime(1000) = %v, want %v", got, want)
	}
	for _, n := range []int64{0, -3} {
		if got := c.PairTime(n); got != 0 {
			t.Errorf("PairTime(%d) = %v, want 0", n, got)
		}
	}
}

func TestServerTransferTime(t *testing.T) {
	c := DefaultConfig()
	if got, want := c.ServerTransferTime(1<<20), Time(float64(1<<20)/c.ServerBandwidth); got != want {
		t.Errorf("ServerTransferTime(1 MiB) = %v, want %v", got, want)
	}
	for _, n := range []int64{0, -3} {
		if got := c.ServerTransferTime(n); got != 0 {
			t.Errorf("ServerTransferTime(%d) = %v, want 0", n, got)
		}
	}
}

func TestIntraNodeTransferTime(t *testing.T) {
	c := DefaultConfig()
	if got, want := c.IntraNodeTransferTime(1<<20), Time(float64(1<<20)/c.IntraNodeBandwidth); got != want {
		t.Errorf("IntraNodeTransferTime(1 MiB) = %v, want %v", got, want)
	}
	for _, n := range []int64{0, -3} {
		if got := c.IntraNodeTransferTime(n); got != 0 {
			t.Errorf("IntraNodeTransferTime(%d) = %v, want 0", n, got)
		}
	}
	// No intra-node bandwidth: a same-node move is priced like the network.
	for _, bw := range []float64{0, -1} {
		c.IntraNodeBandwidth = bw
		if got, want := c.IntraNodeTransferTime(1<<20), Time(float64(1<<20)/c.NetBandwidth); got != want {
			t.Errorf("IntraNodeTransferTime(1 MiB) with IntraNodeBandwidth %v = %v, want %v", bw, got, want)
		}
	}
}

func TestIntraNodeHopLatency(t *testing.T) {
	c := DefaultConfig()
	if got, want := c.IntraNodeHopLatency(), c.IntraNodeLatency; got != want {
		t.Errorf("IntraNodeHopLatency() = %v, want IntraNodeLatency %v", got, want)
	}
	// No intra-node latency: a same-node hop costs a network hop.
	for _, lat := range []Time{0, -1} {
		c.IntraNodeLatency = lat
		if got, want := c.IntraNodeHopLatency(), c.NetLatency; got != want {
			t.Errorf("IntraNodeHopLatency() with IntraNodeLatency %v = %v, want NetLatency %v", lat, got, want)
		}
	}
}
