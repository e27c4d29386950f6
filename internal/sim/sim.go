// Package sim holds the virtual-time base type and the cost-model
// configuration shared by the MPI runtime simulation (internal/mpi) and the
// parallel file system simulation (internal/pfs).
//
// Every performance number this repository produces is derived from virtual
// time: ranks are goroutines that each carry a clock of type Time, and every
// modelled action (message transfer, datatype processing, memory copy, file
// system service) advances a clock according to the parameters in Config.
// The defaults are calibrated so the experiment harness reproduces the
// qualitative shapes of the paper's figures on a Lustre-like system circa
// 2006 (TCP over Myrinet, 2 MB stripes, 4 KB pages).
package sim

import "fmt"

// Time is virtual time in seconds.
type Time float64

// Seconds returns the time as a float64 second count.
func (t Time) Seconds() float64 { return float64(t) }

// String formats the time with microsecond resolution.
func (t Time) String() string { return fmt.Sprintf("%.6fs", float64(t)) }

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Config is the complete cost model. All bandwidths are bytes per virtual
// second, all durations are virtual seconds. The zero value is not useful;
// start from DefaultConfig.
type Config struct {
	// --- Network (TCP over Myrinet, per the paper's testbed) ---

	// NetLatency is the one-way point-to-point message latency.
	NetLatency Time
	// NetBandwidth is the point-to-point bandwidth in bytes/second.
	NetBandwidth float64
	// SendOverhead is the CPU cost of posting a send.
	SendOverhead Time
	// IntraNodeLatency is the one-way latency for messages between ranks
	// that the installed node map places on the same node (shared-memory
	// transport). Zero falls back to NetLatency, so hand-built configs
	// and worlds without a node map keep the flat topology.
	IntraNodeLatency Time
	// IntraNodeBandwidth is the same-node point-to-point bandwidth in
	// bytes/second (shared-memory copy through the kernel or CMA). Zero
	// falls back to NetBandwidth.
	IntraNodeBandwidth float64
	// CollLatencyFactor scales the log2(P)*NetLatency term charged for
	// collective synchronization (barriers and the setup portion of data
	// collectives).
	CollLatencyFactor float64

	// --- CPU ---

	// PairProcessCost is charged per offset/length pair touched while
	// flattening, intersecting, or scanning datatypes. This is the knob
	// behind the paper's O(M) vs O(MA) discussion.
	PairProcessCost Time
	// MemcpyBandwidth is the pack/unpack and buffer-copy bandwidth.
	MemcpyBandwidth float64
	// ChecksumBandwidth is the streaming-checksum bandwidth. A checksum is
	// a single read-only pass over the buffer, so it runs well above the
	// copy bandwidth (which streams both a read and a write). Zero falls
	// back to MemcpyBandwidth.
	ChecksumBandwidth float64

	// --- Parallel file system (Lustre-like) ---

	// StripeSize is the file-system stripe width in bytes (Lustre default
	// in the paper's experiments: 2 MB).
	StripeSize int64
	// StripeCount is the number of object storage targets (OSTs) a file
	// is striped across.
	StripeCount int
	// PageSize is the client/server page size; locks are page-granular
	// and sub-page writes pay a read-modify-write penalty (4 KB).
	PageSize int64
	// IOCallOverhead is the fixed client+server cost of one file system
	// call (syscall, RPC, request processing).
	IOCallOverhead Time
	// ServerBandwidth is the per-OST streaming bandwidth in bytes/second.
	ServerBandwidth float64
	// SeekCost is charged on an OST when consecutive accesses to it are
	// discontiguous.
	SeekCost Time
	// LockGrantCost is the cost of acquiring a page lock not already
	// cached by the client.
	LockGrantCost Time
	// LockRevokeCost is the extra cost when acquiring a lock that another
	// client currently holds (callback + cache flush at the holder).
	LockRevokeCost Time
	// StripeLockCost is charged when a client writes into a stripe whose
	// previous writer was a different client: the server-side extent
	// lock must be transferred (LDLM callback), and the previous
	// writer's cached pages in that stripe are invalidated. Aligning
	// file realms to the stripe size avoids this cost entirely — the
	// mechanism behind the paper's file realm alignment optimization.
	StripeLockCost Time
	// RMWPenalty charges an extra page read for each partially written
	// page (read-modify-write), expressed as a multiplier on the page
	// transfer time. 1.0 means one extra page-sized read.
	RMWPenalty float64
	// ClientCachePages is the per-client write-back cache capacity in
	// pages. Dirty pages evicted or revoked are flushed to the server.
	ClientCachePages int
}

// DefaultConfig returns the calibrated cost model used by the experiment
// harness. The values are chosen to land the simulated curves in the same
// regime as the paper's testbed: tens to ~150 MB/s for Figure 4 workloads
// and single-digit MB/s for the sparse Figure 7 workload.
func DefaultConfig() *Config {
	return &Config{
		NetLatency:         60e-6,
		NetBandwidth:       110e6,
		SendOverhead:       4e-6,
		IntraNodeLatency:   1.5e-6,
		IntraNodeBandwidth: 6e9,
		CollLatencyFactor:  1.0,

		PairProcessCost:   0.45e-6,
		MemcpyBandwidth:   1.2e9,
		ChecksumBandwidth: 4.8e9,

		StripeSize:       2 << 20,
		StripeCount:      4,
		PageSize:         4096,
		IOCallOverhead:   320e-6,
		ServerBandwidth:  90e6,
		SeekCost:         140e-6,
		LockGrantCost:    45e-6,
		LockRevokeCost:   650e-6,
		StripeLockCost:   1800e-6,
		RMWPenalty:       1.0,
		ClientCachePages: 4096,
	}
}

// Validate reports a descriptive error if the configuration is unusable.
func (c *Config) Validate() error {
	switch {
	case c == nil:
		return fmt.Errorf("sim: nil config")
	case c.NetBandwidth <= 0:
		return fmt.Errorf("sim: NetBandwidth must be positive, got %v", c.NetBandwidth)
	case c.MemcpyBandwidth <= 0:
		return fmt.Errorf("sim: MemcpyBandwidth must be positive, got %v", c.MemcpyBandwidth)
	case c.ServerBandwidth <= 0:
		return fmt.Errorf("sim: ServerBandwidth must be positive, got %v", c.ServerBandwidth)
	case c.StripeSize <= 0:
		return fmt.Errorf("sim: StripeSize must be positive, got %d", c.StripeSize)
	case c.StripeCount <= 0:
		return fmt.Errorf("sim: StripeCount must be positive, got %d", c.StripeCount)
	case c.PageSize <= 0:
		return fmt.Errorf("sim: PageSize must be positive, got %d", c.PageSize)
	case c.IntraNodeBandwidth < 0:
		return fmt.Errorf("sim: IntraNodeBandwidth must be non-negative, got %v", c.IntraNodeBandwidth)
	case c.ChecksumBandwidth < 0:
		return fmt.Errorf("sim: ChecksumBandwidth must be non-negative, got %v", c.ChecksumBandwidth)
	case c.IntraNodeLatency < 0:
		return fmt.Errorf("sim: IntraNodeLatency must be non-negative, got %v", c.IntraNodeLatency)
	case c.NetLatency < 0 || c.SendOverhead < 0 || c.PairProcessCost < 0 ||
		c.IOCallOverhead < 0 || c.SeekCost < 0 || c.LockGrantCost < 0 ||
		c.LockRevokeCost < 0 || c.StripeLockCost < 0:
		return fmt.Errorf("sim: negative cost in config")
	}
	return nil
}

// TransferTime is the virtual time to move n bytes point-to-point,
// excluding latency.
func (c *Config) TransferTime(n int64) Time {
	if n <= 0 {
		return 0
	}
	return Time(float64(n) / c.NetBandwidth)
}

// IntraNodeTransferTime is the virtual time to move n bytes between two
// ranks on the same node, excluding latency. Falls back to the network
// bandwidth when no intra-node bandwidth is configured.
func (c *Config) IntraNodeTransferTime(n int64) Time {
	if n <= 0 {
		return 0
	}
	bw := c.IntraNodeBandwidth
	if bw <= 0 {
		bw = c.NetBandwidth
	}
	return Time(float64(n) / bw)
}

// IntraNodeHopLatency is the one-way latency for a same-node message,
// falling back to NetLatency when unset.
func (c *Config) IntraNodeHopLatency() Time {
	if c.IntraNodeLatency > 0 {
		return c.IntraNodeLatency
	}
	return c.NetLatency
}

// MemcpyTime is the virtual time to copy n bytes in memory.
func (c *Config) MemcpyTime(n int64) Time {
	if n <= 0 {
		return 0
	}
	return Time(float64(n) / c.MemcpyBandwidth)
}

// ChecksumTime is the virtual time for one streaming checksum pass over n
// bytes. Read-only, so cheaper than a copy; falls back to the memcpy
// bandwidth when no checksum bandwidth is configured.
func (c *Config) ChecksumTime(n int64) Time {
	if n <= 0 {
		return 0
	}
	bw := c.ChecksumBandwidth
	if bw <= 0 {
		bw = c.MemcpyBandwidth
	}
	return Time(float64(n) / bw)
}

// PairTime is the virtual time to process n offset/length pairs.
func (c *Config) PairTime(n int64) Time {
	if n <= 0 {
		return 0
	}
	return Time(float64(n)) * c.PairProcessCost
}

// ServerTransferTime is the virtual time for one OST to stream n bytes.
func (c *Config) ServerTransferTime(n int64) Time {
	if n <= 0 {
		return 0
	}
	return Time(float64(n) / c.ServerBandwidth)
}
