package chaos

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"flexio/internal/mpiio"
)

// Spec prints the scenario in the grammar ParseSpec reads; for every valid
// scenario ParseSpec(s.Spec()) == s.
//
//	spec  = engine { "," field }
//	field = "read" | "write"                  direction (default write, read with a crash-mid-read or -exchange)
//	      | "datasieve" | "naive" | "listio"  buffered I/O method (default datasieve)
//	      | "degraded" | "pre"                fall back to naive I/O; node-local pre-aggregation
//	      | "cb=" N | "seed=" N               cb_nodes (default 0 = all ranks); seed (default 1)
//	      | storage-fault                     transient partial hard-round1 brownout storm giveup sieve-hard transient-round1 partial-last
//	      | rank-fault [ ":" victim ]         crash-before-shuffle crash-mid-rounds crash-mid-read crash-mid-exchange straggler drop-storm (victim default 1)
//	      | plane [ ":" budget ]              wire atrest torn atrest-ahead; budget repair (default) or abort
//
// Fields come in any order, a plane at most once each: for example
// "core-nb,crash-mid-rounds:3,cb=2" or "twophase,read,atrest:abort,seed=7".
func (s Scenario) Spec() string {
	parts := []string{s.Engine, "read"}
	if s.Write {
		parts[1] = "write"
	}
	parts = append(parts, s.Method.String())
	if s.Storage != "" {
		parts = append(parts, string(s.Storage))
	}
	if s.Rank != "" {
		parts = append(parts, fmt.Sprintf("%s:%d", s.Rank, s.Victim))
	}
	if s.Corrupt != "" {
		budget := "abort"
		if s.Repairable {
			budget = "repair"
		}
		parts = append(parts, string(s.Corrupt)+":"+budget)
	}
	if s.Degraded {
		parts = append(parts, "degraded")
	}
	if s.Preagg {
		parts = append(parts, "pre")
	}
	if s.CbNodes != 0 {
		parts = append(parts, fmt.Sprintf("cb=%d", s.CbNodes))
	}
	return strings.Join(append(parts, fmt.Sprintf("seed=%d", s.Seed)), ",")
}

// ParseSpec parses the grammar Spec documents into a valid scenario. Every
// error names the field it rejects.
func ParseSpec(spec string) (Scenario, error) {
	fields := strings.Split(spec, ",")
	s := Scenario{Engine: fields[0], Seed: 1}
	var dir string
	for _, f := range fields[1:] {
		head, arg, hasArg := strings.Cut(f, ":")
		key, num, isNum := strings.Cut(f, "=")
		method, isMethod := methodNamed(f)
		var err error
		switch {
		case f == "read" || f == "write":
			if dir != "" && dir != f {
				err = fmt.Errorf("direction given twice (%s, %s)", dir, f)
			}
			dir = f
		case isMethod:
			s.Method = method
		case f == "degraded":
			s.Degraded = true
		case f == "pre":
			s.Preagg = true
		case isNum && key == "cb":
			s.CbNodes, err = strconv.Atoi(num)
		case isNum && key == "seed":
			s.Seed, err = strconv.ParseInt(num, 10, 64)
		case slices.Contains(storageFaults, Fault(f)):
			err = once("storage fault", string(s.Storage))
			s.Storage = Fault(f)
		case slices.Contains(rankFaults, RankFault(head)):
			err = once("rank fault", string(s.Rank))
			s.Rank, s.Victim = RankFault(head), 1
			if hasArg && err == nil {
				if s.Victim, err = strconv.Atoi(arg); err != nil {
					err = fmt.Errorf("want %s[:victim]: %w", head, err)
				}
			}
		case slices.Contains(corruptPlanes, CorruptPlane(head)):
			err = once("corruption plane", string(s.Corrupt))
			s.Corrupt, s.Repairable = CorruptPlane(head), arg != "abort"
			if hasArg && arg != "abort" && arg != "repair" {
				err = fmt.Errorf("unknown budget %q (want repair or abort)", arg)
			}
		default:
			err = fmt.Errorf("not a direction, method, modifier (degraded, pre, cb=N, seed=N), storage fault %v, rank fault %v or corruption plane %v",
				storageFaults, rankFaults, corruptPlanes)
		}
		if err != nil {
			return Scenario{}, fmt.Errorf("spec field %q: %w", f, err)
		}
	}
	s.Write = dir == "write" || (dir == "" && !s.Rank.reads())
	if err := s.validate(); err != nil {
		return Scenario{}, fmt.Errorf("spec %q: %w", spec, err)
	}
	return s, nil
}

// once rejects a second fault of a plane that already has one.
func once(plane, have string) error {
	if have != "" {
		return fmt.Errorf("a second %s (%s is already set)", plane, have)
	}
	return nil
}

func methodNamed(name string) (mpiio.Method, bool) {
	for _, m := range methods {
		if m.String() == name {
			return m, true
		}
	}
	return 0, false
}
