package analyze

import (
	"fmt"
	"math"

	"flexio/internal/report"
)

// Regression thresholds for the differential findings: movements below the
// relative floor or the absolute grace are measurement noise, not
// regressions.
const (
	phaseRegressTolFrac     = 0.10
	phaseRegressGraceSec    = 1e-4
	internodeRegressTolFrac = 0.10
)

// ReportFindings turns a differential run report into ranked findings: one
// phase-regression per phase whose virtual seconds grew past the tolerance,
// plus the headline internode-byte regression. It is the
// analyzer's bridge from "these two runs differ" to "this is what got
// slower and by how much".
func ReportFindings(rep *report.Report) []Finding {
	if rep == nil {
		return nil
	}
	var fs []Finding

	for _, d := range rep.Phases {
		rel := d.Rel()
		if d.Abs() < phaseRegressGraceSec || (!math.IsInf(rel, 1) && rel < phaseRegressTolFrac) {
			continue
		}
		sev := SevInfo
		if math.IsInf(rel, 1) || rel >= 0.50 {
			sev = SevWarning
		}
		grew := "appeared"
		if !math.IsInf(rel, 1) {
			grew = fmt.Sprintf("grew %.0f%%", rel*100)
		}
		fs = append(fs, finding(sev, "phase-regression",
			fmt.Sprintf("phase %s %s between %s and %s: %.6fs -> %.6fs",
				d.Name, grew, rep.OldLabel, rep.NewLabel, d.Old, d.New),
			"diff the per-rank critpath shifts and the internode-byte headline in the same report to see whether the phase grew from added traffic or a moved hotspot",
			math.Min(rel, 4)*25))
	}

	if d := rep.InterNodeBytes; d != nil {
		rel := d.Rel()
		if !math.IsInf(rel, 1) && rel >= internodeRegressTolFrac && d.Abs() > 0 {
			fs = append(fs, finding(SevInfo, "internode-regression",
				fmt.Sprintf("inter-node shuffle bytes grew %.0f%% between %s and %s: %.0f -> %.0f",
					rel*100, rep.OldLabel, rep.NewLabel, d.Old, d.New),
				"check whether pre-aggregation or node-local realm placement was disabled; the two-level exchange exists to keep this number flat",
				math.Min(rel, 4)*15))
		}
	}

	return Merge(fs)
}
