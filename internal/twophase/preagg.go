package twophase

import "flexio/internal/datatype"

// Node-local pre-aggregation for the baseline is core's stage
// (core.PreaggState.Exchange) over this engine's requests, offset/length
// lists: the node leaders absorb their members' lists and payloads and carry
// the round data, members walk the rounds with an empty access. The baseline
// keeps its O(P) request exchange — members still ship (now empty) request
// lists to every aggregator — so only the data plane changes, staying in
// character for the ROMIO model.

// segRuns is the engine's core.PreaggRuns.
func segRuns(items []datatype.MergeItem, enc []byte, part int) ([]datatype.MergeItem, error) {
	segs, err := datatype.DecodeSegs(enc)
	if err != nil {
		return items, err
	}
	return datatype.AppendSegRuns(items, segs, part), nil
}
