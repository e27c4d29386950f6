package main

import (
	"cmp"
	"flag"
	"fmt"

	"flexio/internal/benchsuite"
)

type measure func(logf func(format string, args ...any)) ([]benchsuite.Result, error)

// A ledger is one benchmark trajectory: how its rows are measured, how fresh
// rows are held against a committed file's "after" rows, and what it says.
type ledger struct {
	gate     string  // the prefix of its check's lines
	measure  measure // the rows -record stores under -label and -check holds
	before   measure // rows -record also stores under "before" (nil: none)
	compare  func(baseline, fresh []benchsuite.Result) []string
	recorded string // the line -record prints, of the rows, the label and the file
	held     string // the line a passing -check prints, of the rows
	against  string // what -check does against "after" (default "regress")
	problems string // what a failing -check counts (default "regression(s)")
}

var ledgers = map[string]ledger{
	"bench": {
		gate: "benchcheck", measure: benchsuite.MeasureAll,
		compare:  func(b, f []benchsuite.Result) []string { return benchsuite.Compare(b, f, 0.20, 8) },
		recorded: "recorded %[1]d benchmark results under %[2]q in %[3]s",
		held:     "all %d configurations within 20%% of the committed baseline",
	},
	"preagg": {
		gate: "preaggcheck",
		measure: func(logf func(string, ...any)) ([]benchsuite.Result, error) {
			return benchsuite.MeasureAllPreagg(true, logf)
		},
		before: func(logf func(string, ...any)) ([]benchsuite.Result, error) {
			return benchsuite.MeasureAllPreagg(false, logf)
		},
		compare:  func(b, f []benchsuite.Result) []string { return benchsuite.ComparePreagg(b, f, 0.10, 4096) },
		recorded: "recorded %[1]d before/after row pairs in %[3]s",
		held:     "all %d pre-aggregated rows within 10%% of the committed internode bytes",
	},
	"integrity": {
		gate: "integritycheck", measure: benchsuite.MeasureAllIntegrity,
		compare:  func(c, f []benchsuite.Result) []string { return benchsuite.CompareIntegrity(c, f, 0.05, 8) },
		recorded: "recorded %[1]d checksum-on rows in %[3]s",
		held:     "all %d checksum-on rows within the clean allocation budget and 5%% virtual time",
		against:  "budget", problems: "violation(s)",
	},
	"telemetry": {
		gate: "telemetrycheck", measure: benchsuite.MeasureAllTelemetry,
		compare:  func(b, f []benchsuite.Result) []string { return benchsuite.CompareTelemetry(b, f, 0.10, 256) },
		recorded: "recorded %[1]d telemetry rows in %[3]s",
		held:     "all %d rows hold their sampling and rollup budgets",
	},
}

// runLedger measures one ledger's rows once, records them in a JSON
// trajectory (-record), and gates them against a committed one (-check).
// Both at once is allowed: CI records its fresh numbers as an artifact and
// still fails on a regression.
func runLedger(fs *flag.FlagSet, args []string, out *output) error {
	record := fs.String("record", "", "merge the measured rows into this JSON trajectory file under -label (preagg: the flat exchange's under \"before\" too)")
	label := fs.String("label", "after", "label to store -record's rows under (e.g. before, after, ci)")
	check := fs.String("check", "", "fail if the measured rows break the ledger's tolerances against the 'after' entries of this JSON file")
	pos, err := parse(fs, args, 1, 1, "one ledger: bench, preagg, integrity or telemetry")
	if err != nil {
		return err
	}
	l, ok := ledgers[pos[0]]
	switch {
	case !ok:
		return usagef("unknown ledger %q: bench, preagg, integrity or telemetry", pos[0])
	case *record == "" && *check == "":
		return usagef("nothing to do: give -record FILE, -check FILE or both")
	}
	logf := func(format string, args ...any) { fmt.Fprintf(out, format+"\n", args...) }
	var before []benchsuite.Result
	if *record != "" && l.before != nil {
		if before, err = l.before(logf); err != nil {
			return err
		}
	}
	fresh, err := l.measure(logf)
	if err != nil {
		return err
	}
	if *record != "" {
		f, err := benchsuite.Load(*record)
		if err != nil {
			return err
		}
		if before != nil {
			f.Set("before", before)
		}
		f.Set(*label, fresh)
		if err := f.Save(*record); err != nil {
			return err
		}
		for i := range before {
			if b, a := before[i].InterNodeBytesPerOp, fresh[i].InterNodeBytesPerOp; a > 0 {
				fmt.Fprintf(out, "%-34s internode bytes/op %12.0f -> %12.0f (%.1fx reduction)\n", fresh[i].Name, b, a, b/a)
			}
		}
		fmt.Fprintf(out, l.recorded+"\n", len(fresh), *label, *record)
	}
	if *check == "" {
		return nil
	}
	against, problems := cmp.Or(l.against, "regress"), cmp.Or(l.problems, "regression(s)")
	f, err := benchsuite.Load(*check)
	if err != nil {
		return err
	}
	baseline := f.Results["after"]
	if len(baseline) == 0 {
		return fmt.Errorf("%s: %s has no 'after' entries to %s against", l.gate, *check, against)
	}
	found := l.compare(baseline, fresh)
	for _, p := range found {
		fmt.Fprintf(out, "%s: %s\n", l.gate, p)
	}
	if len(found) > 0 {
		return fmt.Errorf("%s: %d %s against %s", l.gate, len(found), problems, *check)
	}
	fmt.Fprintf(out, "%s: "+l.held+"\n", l.gate, len(fresh))
	return nil
}
