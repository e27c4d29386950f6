// Command flexio drives the simulated cluster: figures and ablations (fig),
// one HPIO configuration (hpio), the chaos table (chaos), the benchmark
// ledgers (ledger), run-to-run reports (report) and the analyzer's demo
// (observe). `flexio` alone lists them; flags may stand before or after the
// positional arguments.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
)

// A command parses its flags from fs and writes its report to out.
type command struct {
	name, synopsis string
	run            func(fs *flag.FlagSet, args []string, out *output) error
}

var commands = []command{
	{"fig", "fig [4|5|7|A1..A5|all] [flags]      regenerate figures and ablations (fig 7 -clients N: one cell)", runFig},
	{"hpio", "hpio [flags]                         one HPIO configuration, verified, with its phase table", runHPIO},
	{"chaos", "chaos [-traces DIR] <selection>      fault-injection cells: all, storage, rank, corrupt, a regexp or a spec", runChaos},
	{"ledger", "ledger <bench|preagg|integrity|telemetry> [-record FILE] [-label L] [-check FILE]", runLedger},
	{"report", "report OLD NEW                       ranked differential report of two run artifacts", runReport},
	{"observe", "observe [-metrics-out FILE]          the analyzer on its diagnostic demo workload", runObserve},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one command line and returns its exit status: 1 when the run
// failed, 2 when the command line is wrong.
func run(args []string, stdout, stderr io.Writer) int {
	i := slices.IndexFunc(commands, func(c command) bool { return len(args) > 0 && c.name == args[0] })
	if i < 0 {
		if len(args) > 0 {
			fmt.Fprintf(stderr, "flexio: unknown command %q\n", args[0])
		}
		usage(stderr)
		return 2
	}
	c := commands[i]
	fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		usage(stderr)
		fmt.Fprintf(stderr, "\nflags of %s:\n", c.name)
		fs.PrintDefaults()
	}
	var bad usageError
	switch err := c.run(fs, args[1:], &output{Writer: stdout}); {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &bad):
		if bad.error != errFlagged {
			fmt.Fprintf(stderr, "flexio %s: %v\n", c.name, bad.error)
		}
		return 2
	default:
		fmt.Fprintln(stderr, err)
		return 1
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: flexio <command> [arguments]")
	for _, c := range commands {
		fmt.Fprintf(w, "  flexio %s\n", c.synopsis)
	}
}

// usageError is a mistake on the command line.
type usageError struct{ error }

// errFlagged is a usage error the flag package has already reported.
var errFlagged = errors.New("bad flags")

func usagef(format string, args ...any) error { return usageError{fmt.Errorf(format, args...)} }

// parse parses flags wherever they stand among args and returns the
// positional arguments: between least and most of them, what want says.
func parse(fs *flag.FlagSet, args []string, least, most int, want string) ([]string, error) {
	var pos []string
	for {
		if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
			return nil, err
		} else if err != nil {
			return nil, usageError{errFlagged}
		}
		if fs.NArg() == 0 {
			break
		}
		pos, args = append(pos, fs.Arg(0)), fs.Args()[1:]
	}
	if len(pos) < least || len(pos) > most {
		return nil, usagef("want %s, got %q", want, pos)
	}
	return pos, nil
}

// refuse fails when a flag among names was set on the command line: the
// run it asked for would not read it.
func refuse(fs *flag.FlagSet, names []string, why string) (err error) {
	fs.Visit(func(f *flag.Flag) {
		if err == nil && slices.Contains(names, f.Name) {
			err = usagef("-%s %s", f.Name, why)
		}
	})
	return err
}

// output is stdout that knows whether anything was written to it.
type output struct {
	io.Writer
	wrote bool
}

func (o *output) Write(p []byte) (int, error) {
	o.wrote = o.wrote || len(p) > 0
	return o.Writer.Write(p)
}

// section opens a paragraph: a blank line, unless it is the first output.
func (o *output) section() {
	if o.wrote {
		fmt.Fprintln(o)
	}
}
