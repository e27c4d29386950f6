package report

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// maxRows bounds every ranked section in the text rendering; the JSON form
// carries everything.
const maxRows = 12

// pct renders a relative change, keeping +Inf (a fresh appearance over a
// zero baseline) readable.
func pct(d Delta) string {
	r := d.Rel()
	if math.IsInf(r, 1) {
		return "new"
	}
	return fmt.Sprintf("%+.1f%%", 100*r)
}

// Top returns the report's headline: the single largest ranked movement,
// as a one-line attribution ("phase io: 0.021s -> 0.034s (+61.9%)"), or
// "no differences" when nothing moved.
func (r *Report) Top() string {
	if r == nil {
		return "no differences"
	}
	if len(r.Phases) > 0 && r.Phases[0].Abs() != 0 {
		d := r.Phases[0]
		return fmt.Sprintf("phase %s: %.6fs -> %.6fs (%s)", d.Name, d.Old, d.New, pct(d))
	}
	if len(r.Counters) > 0 {
		d := r.Counters[0]
		return fmt.Sprintf("counter %s: %.0f -> %.0f (%s)", d.Name, d.Old, d.New, pct(d))
	}
	if r.CritPath.Shifted() {
		c := r.CritPath
		return fmt.Sprintf("critpath hotspot moved: r%d %s (%.6fs) -> r%d %s (%.6fs)",
			c.OldTopRank, c.OldTopPhase, c.OldTopSec, c.NewTopRank, c.NewTopPhase, c.NewTopSec)
	}
	return "no differences"
}

// Format renders the report as deterministic text: fixed section order,
// ranked rows, fixed float formatting. Identical inputs yield identical
// bytes.
func (r *Report) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== differential run report: %s -> %s ==\n", r.OldLabel, r.NewLabel)
	fmt.Fprintf(&sb, "headline: %s\n", r.Top())

	if len(r.Phases) > 0 {
		sb.WriteString("per-phase virtual seconds, ranked:\n")
		for i, d := range r.Phases {
			if i == maxRows {
				fmt.Fprintf(&sb, "  ... %d more phase(s)\n", len(r.Phases)-maxRows)
				break
			}
			fmt.Fprintf(&sb, "  %-10s %12.6f -> %12.6f (%s)\n", d.Name, d.Old, d.New, pct(d))
		}
	}

	if r.InterNodeBytes != nil {
		d := *r.InterNodeBytes
		fmt.Fprintf(&sb, "internode shuffle bytes: %.0f -> %.0f (%s)\n", d.Old, d.New, pct(d))
	}

	if len(r.Counters) > 0 {
		sb.WriteString("counters, ranked by relative movement:\n")
		for i, d := range r.Counters {
			if i == maxRows {
				fmt.Fprintf(&sb, "  ... %d more counter(s)\n", len(r.Counters)-maxRows)
				break
			}
			fmt.Fprintf(&sb, "  %-24s %14.0f -> %14.0f (%s)\n", d.Name, d.Old, d.New, pct(d))
		}
	}

	if r.CritPath != nil {
		c := r.CritPath
		fmt.Fprintf(&sb, "critical path: window %.6fs -> %.6fs, blocked %.6fs -> %.6fs\n",
			c.Window.Old, c.Window.New, c.Blocked.Old, c.Blocked.New)
		if c.Shifted() {
			fmt.Fprintf(&sb, "  hotspot moved: r%d %s (%.6fs) -> r%d %s (%.6fs)\n",
				c.OldTopRank, c.OldTopPhase, c.OldTopSec, c.NewTopRank, c.NewTopPhase, c.NewTopSec)
		} else {
			fmt.Fprintf(&sb, "  hotspot held: r%d %s (%.6fs -> %.6fs)\n",
				c.NewTopRank, c.NewTopPhase, c.OldTopSec, c.NewTopSec)
		}
	}

	if len(r.RankCritSec) > 0 {
		sb.WriteString("per-rank critpath seconds shifts, ranked:\n")
		for i, d := range r.RankCritSec {
			if i == maxRows {
				fmt.Fprintf(&sb, "  ... %d more rank(s)\n", len(r.RankCritSec)-maxRows)
				break
			}
			fmt.Fprintf(&sb, "  %-8s %12.6f -> %12.6f (%s)\n", d.Name, d.Old, d.New, pct(d))
		}
	}

	if r.Imbalance != nil && (r.Imbalance.Old != 0 || r.Imbalance.New != 0) {
		fmt.Fprintf(&sb, "aggregator imbalance (mean over rounds): %.3f -> %.3f\n", r.Imbalance.Old, r.Imbalance.New)
	}
	if r.Rounds != nil && r.Rounds.Old != r.Rounds.New {
		fmt.Fprintf(&sb, "recorded rounds: %.0f -> %.0f\n", r.Rounds.Old, r.Rounds.New)
	}

	return strings.TrimRight(sb.String(), "\n")
}

// WriteJSON writes the full report as indented JSON (byte-deterministic:
// slices are pre-sorted and encoding/json orders struct fields by
// declaration).
func (r *Report) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
