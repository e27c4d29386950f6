package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
)

// WriteChromeTrace exports the sink as Chrome trace-event JSON (the "JSON
// object format"), loadable in Perfetto or chrome://tracing. Each rank is
// one track (pid 0, tid = rank) named "rank N"; virtual seconds are
// exported as microseconds, the trace-event unit. The output is
// byte-deterministic for a deterministic simulation: events are emitted in
// rank order, tags in call-site order, and all numbers with fixed
// formatting.
//
// Tracks are sanitized on export so the file always loads: an End whose
// Begin was lost to ring-buffer overflow is skipped, and spans still open
// at the end of a track are closed at its final timestamp.
func (s *Sink) WriteChromeTrace(w io.Writer) error {
	if s == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`)
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"traceEvents":[` + "\n"); err != nil {
		return err
	}
	first := true
	emit := func(line string) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.WriteString(line)
	}
	emit(`{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"flexio"}}`)
	for rank := range s.tracers {
		emit(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":0,"tid":%d,"args":{"name":"rank %d"}}`, rank, rank))
		emit(fmt.Sprintf(`{"name":"thread_sort_index","ph":"M","pid":0,"tid":%d,"args":{"sort_index":%d}}`, rank, rank))
	}
	for rank, t := range s.tracers {
		depth := 0
		var lastTS float64
		for _, e := range t.Events() {
			ts := float64(e.TS) * 1e6 // virtual seconds -> microseconds
			lastTS = ts
			switch e.Kind {
			case KindBegin:
				depth++
				emit(fmt.Sprintf(`{"name":%s,"cat":"phase","ph":"B","pid":0,"tid":%d,"ts":%.3f%s}`,
					strconv.Quote(e.Name), rank, ts, argsJSON(e.Tags)))
			case KindEnd:
				if depth == 0 {
					continue // orphan end after ring overflow
				}
				depth--
				emit(fmt.Sprintf(`{"ph":"E","pid":0,"tid":%d,"ts":%.3f}`, rank, ts))
			case KindInstant:
				emit(fmt.Sprintf(`{"name":%s,"cat":"event","ph":"i","s":"t","pid":0,"tid":%d,"ts":%.3f%s}`,
					strconv.Quote(e.Name), rank, ts, argsJSON(e.Tags)))
				if line, ok := flowJSON(e, rank, ts); ok {
					emit(line)
				}
			}
		}
		for ; depth > 0; depth-- {
			emit(fmt.Sprintf(`{"ph":"E","pid":0,"tid":%d,"ts":%.3f}`, rank, lastTS))
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteChromeTraceFile writes the Chrome trace JSON to the named file.
func (s *Sink) WriteChromeTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// flowJSON renders the Perfetto flow event paired with a causal instant, so
// cross-rank arrows appear on the timeline: a message edge starts ("ph":"s")
// at its msg_send instant and finishes ("ph":"f") at the matching msg_recv,
// bound by the shared edge id; a rank crash starts a "failover" flow that
// finishes at rank 0's failover instant for that dead rank. Flow ids are
// strings ("e<edge>", "fo-<rank>") so the two families can never collide.
// Instants without a causal role return ok=false.
func flowJSON(e Event, rank int, ts float64) (line string, ok bool) {
	switch e.Name {
	case MsgSendName:
		if id, found := tagInt(e.Tags, EdgeTag); found {
			return fmt.Sprintf(`{"name":"msg","cat":"flow","ph":"s","id":"e%d","pid":0,"tid":%d,"ts":%.3f}`, id, rank, ts), true
		}
	case MsgRecvName:
		if id, found := tagInt(e.Tags, EdgeTag); found {
			return fmt.Sprintf(`{"name":"msg","cat":"flow","ph":"f","bp":"e","id":"e%d","pid":0,"tid":%d,"ts":%.3f}`, id, rank, ts), true
		}
	case CrashName:
		if r, found := tagInt(e.Tags, RankTag); found {
			return fmt.Sprintf(`{"name":"failover","cat":"flow","ph":"s","id":"fo-%d","pid":0,"tid":%d,"ts":%.3f}`, r, rank, ts), true
		}
	case FailoverName:
		if r, found := tagInt(e.Tags, DeadTag); found {
			return fmt.Sprintf(`{"name":"failover","cat":"flow","ph":"f","bp":"e","id":"fo-%d","pid":0,"tid":%d,"ts":%.3f}`, r, rank, ts), true
		}
	}
	return "", false
}

// tagInt returns the first integer tag with the given key.
func tagInt(tags []Tag, key string) (int64, bool) {
	for _, tg := range tags {
		if tg.Key == key && !tg.IsStr {
			return tg.Int, true
		}
	}
	return 0, false
}

// argsJSON renders tags as a trace-event args object (empty string when
// there are no tags). Tag order is preserved, so output is deterministic.
func argsJSON(tags []Tag) string {
	if len(tags) == 0 {
		return ""
	}
	out := `,"args":{`
	for i, tg := range tags {
		if i > 0 {
			out += ","
		}
		out += strconv.Quote(tg.Key) + ":"
		if tg.IsStr {
			out += strconv.Quote(tg.Str)
		} else {
			out += strconv.FormatInt(tg.Int, 10)
		}
	}
	return out + "}"
}
