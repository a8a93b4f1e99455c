// Package stream provides event-stream utilities: CSV persistence of
// generated workloads (so experiments can be archived and replayed),
// and timestamp-order enforcement.
//
// The CSV layout is one event per row — type,ts,seq,attr0,attr1,... —
// preceded by a header comment that captures the schema:
//
//	#acep domain=traffic types=10 attrs=speed,count
package stream

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"acep/internal/event"
	"acep/internal/gen"
)

// WriteCSV persists a workload. The attribute names are taken from the
// schema (all generated workloads register identical attributes for every
// type); a keyed workload additionally records keys=N so replay restores
// its partitionability.
func WriteCSV(w io.Writer, wk *gen.Workload) error {
	bw := bufio.NewWriter(w)
	// A schema without attributes writes an empty attrs= value, which
	// ReadCSV round-trips to zero registered attributes.
	attrs := strings.Join(wk.Schema.Attrs(0), ",")
	fmt.Fprintf(bw, "#acep domain=%s types=%d attrs=%s",
		wk.Domain, wk.Schema.NumTypes(), attrs)
	if wk.Keys > 0 {
		fmt.Fprintf(bw, " keys=%d", wk.Keys)
	}
	bw.WriteByte('\n')
	for i := range wk.Events {
		ev := &wk.Events[i]
		fmt.Fprintf(bw, "%d,%d,%d", ev.Type, ev.TS, ev.Seq)
		for _, a := range ev.Attrs {
			fmt.Fprintf(bw, ",%g", a)
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// ReadCSV loads a workload written by WriteCSV, rebuilding the schema
// from the header.
func ReadCSV(r io.Reader) (*gen.Workload, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("stream: empty input")
	}
	header := sc.Text()
	if !strings.HasPrefix(header, "#acep ") {
		return nil, fmt.Errorf("stream: missing #acep header")
	}
	fields := map[string]string{}
	for _, kv := range strings.Fields(header)[1:] {
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 || parts[0] == "" {
			return nil, fmt.Errorf("stream: line 1: malformed header token %q (want key=value)", kv)
		}
		if _, dup := fields[parts[0]]; dup {
			return nil, fmt.Errorf("stream: line 1: duplicate header field %q", parts[0])
		}
		fields[parts[0]] = parts[1]
	}
	for _, req := range []string{"types", "attrs"} {
		if _, ok := fields[req]; !ok {
			return nil, fmt.Errorf("stream: line 1: header is missing the %s= field", req)
		}
	}
	ntypes, err := strconv.Atoi(fields["types"])
	if err != nil || ntypes <= 0 {
		return nil, fmt.Errorf("stream: line 1: bad types field %q", fields["types"])
	}
	// An empty attrs= value means zero attributes per type; splitting it
	// would fabricate a single attribute named "".
	var attrs []string
	if fields["attrs"] != "" {
		attrs = strings.Split(fields["attrs"], ",")
		for _, a := range attrs {
			if a == "" {
				return nil, fmt.Errorf("stream: line 1: empty attribute name in attrs=%q", fields["attrs"])
			}
		}
	}
	domain := fields["domain"]
	schema := event.NewSchema()
	prefix := "T"
	if domain == "stocks" {
		prefix = "S"
	}
	for i := 0; i < ntypes; i++ {
		if _, err := schema.AddType(fmt.Sprintf("%s%d", prefix, i), attrs...); err != nil {
			return nil, err
		}
	}
	wk := &gen.Workload{Schema: schema, Domain: domain}
	if ks := fields["keys"]; ks != "" {
		keys, err := strconv.Atoi(ks)
		if err != nil || keys < 0 {
			return nil, fmt.Errorf("stream: line 1: bad keys field %q", ks)
		}
		wk.Keys = keys
	}
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) < 3 {
			return nil, fmt.Errorf("stream: line %d: want type,ts,seq[,attrs...]", line)
		}
		typ, err := strconv.Atoi(parts[0])
		if err != nil || typ < 0 || typ >= ntypes {
			return nil, fmt.Errorf("stream: line %d: bad type %q", line, parts[0])
		}
		ts, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("stream: line %d: bad ts %q", line, parts[1])
		}
		seq, err := strconv.ParseUint(parts[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("stream: line %d: bad seq %q", line, parts[2])
		}
		vals := make([]float64, 0, len(parts)-3)
		for _, p := range parts[3:] {
			v, err := strconv.ParseFloat(p, 64)
			if err != nil {
				return nil, fmt.Errorf("stream: line %d: bad attr %q", line, p)
			}
			vals = append(vals, v)
		}
		ev, err := schema.New(typ, event.Time(ts), vals...)
		if err != nil {
			return nil, fmt.Errorf("stream: line %d: %v", line, err)
		}
		ev.Seq = seq
		wk.Events = append(wk.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return wk, nil
}

// SortByTime orders events by timestamp (stable, preserving Seq order for
// equal timestamps) and renumbers Seq 1..n. Engines require timestamp
// order; use this on any externally sourced stream.
func SortByTime(evs []event.Event) {
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].TS != evs[j].TS {
			return evs[i].TS < evs[j].TS
		}
		return evs[i].Seq < evs[j].Seq
	})
	for i := range evs {
		evs[i].Seq = uint64(i + 1)
	}
}

// Validate checks that a stream is timestamp-ordered with strictly
// increasing sequence numbers, returning the index of the first offending
// event (-1 when valid).
func Validate(evs []event.Event) int {
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS || evs[i].Seq <= evs[i-1].Seq {
			return i
		}
	}
	return -1
}
