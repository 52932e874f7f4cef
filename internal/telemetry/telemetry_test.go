package telemetry

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestReasonStrings(t *testing.T) {
	all := []Reason{
		ReasonNone, EmitInter, EmitSpecLoad, EmitDeref, EmitIntra,
		FilterNoUse, FilterDupLine, FilterSmallStride, FilterNoPattern,
		FilterHugeStride, FilterNoAddr,
		LoopAccepted, LoopSmallTrip, LoopIncomplete, LoopNoLoads,
	}
	seen := map[string]bool{}
	for _, r := range all {
		s := r.String()
		if s == "" || s == "REASON?" {
			t.Errorf("reason %d has no name", r)
		}
		if seen[s] {
			t.Errorf("duplicate reason name %q", s)
		}
		seen[s] = true
	}
	if Reason(200).String() != "REASON?" {
		t.Errorf("out-of-range reason should print REASON?, got %q", Reason(200).String())
	}
}

func TestReasonClauses(t *testing.T) {
	// Every profitability filter must name its Sec. 3.3 clause; the three
	// numbered conditions map to distinct clauses.
	for r, want := range map[Reason]string{
		FilterNoUse:       "profitability (1)",
		FilterDupLine:     "profitability (2)",
		FilterSmallStride: "profitability (3)",
		FilterNoPattern:   "Sec. 3.2",
		LoopSmallTrip:     "Sec. 3",
	} {
		if cl := r.Clause(); !strings.Contains(cl, want) {
			t.Errorf("%s clause %q does not mention %q", r, cl, want)
		}
	}
	for _, r := range []Reason{EmitInter, EmitSpecLoad, EmitDeref, EmitIntra} {
		if !r.Emitted() {
			t.Errorf("%s should be Emitted", r)
		}
		if r.Clause() == "" {
			t.Errorf("%s should have a clause", r)
		}
	}
	for _, r := range []Reason{ReasonNone, FilterNoUse, LoopAccepted} {
		if r.Emitted() {
			t.Errorf("%s should not be Emitted", r)
		}
	}
}

func TestPrefetchOutcomeStrings(t *testing.T) {
	outs := []PrefetchOutcome{PrefetchFetched, PrefetchUseless, PrefetchDroppedTLB, PrefetchDroppedQueue}
	seen := map[string]bool{}
	for _, o := range outs {
		s := o.String()
		if s == "" || seen[s] {
			t.Errorf("outcome %d: bad or duplicate name %q", o, s)
		}
		seen[s] = true
	}
	if got := PrefetchOutcome(200).String(); got != "outcome?" {
		t.Errorf("unknown outcome renders %q", got)
	}
}

// sampleTrace builds a trace with one event of every kind.
func sampleTrace() *Trace {
	tr := NewTrace()
	tr.Compile(CompileEvent{Method: "::findInMemory", Mode: "INTER+INTRA", Invocations: 2,
		Loops: 1, InspectSteps: 462, BaseUnits: 7500, PrefetchUnits: 665, Prefetches: 2})
	tr.Loop(LoopEvent{Method: "::findInMemory", Loop: 10, Verdict: LoopAccepted,
		Trips: 20, NaturalExit: false, Steps: 462, Nodes: 11})
	tr.Decision(DecisionEvent{Method: "::findInMemory", Loop: 10, Instr: 5, Pair: -1,
		Op: "arrayload", Stride: 4, Ratio: 1.0, Samples: 19, Reason: EmitSpecLoad})
	tr.Decision(DecisionEvent{Method: "::findInMemory", Loop: 10, Instr: 5, Pair: 12,
		Op: "getfield", Stride: 20, Reason: EmitDeref})
	tr.Site(SiteEvent{Method: "::findInMemory", Site: 5, Kind: "prefetch",
		Issued: 2615, Useless: 1255})
	tr.Cell(CellEvent{Cell: "jess/small/Pentium4/INTER+INTRA/compact",
		Wall: 120 * time.Millisecond})
	return tr
}

func TestTraceCollectsInOrder(t *testing.T) {
	tr := sampleTrace()
	if tr.Len() != 6 {
		t.Fatalf("Len = %d, want 6", tr.Len())
	}
	evs := tr.Events()
	kinds := make([]string, len(evs))
	for i, ev := range evs {
		switch ev.(type) {
		case CompileEvent:
			kinds[i] = "compile"
		case LoopEvent:
			kinds[i] = "loop"
		case DecisionEvent:
			kinds[i] = "decision"
		case SiteEvent:
			kinds[i] = "site"
		case CellEvent:
			kinds[i] = "cell"
		}
	}
	want := []string{"compile", "loop", "decision", "decision", "site", "cell"}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Errorf("event order = %v, want %v", kinds, want)
	}
}

func TestWriteChromeTraceIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTrace().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			TS   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 6 {
		t.Fatalf("traceEvents = %d, want 6", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "i" && ev.Ph != "X" {
			t.Errorf("event %q: unexpected phase %q", ev.Name, ev.Ph)
		}
		if ev.TS < 0 {
			t.Errorf("event %q: negative timestamp %d", ev.Name, ev.TS)
		}
	}
	last := doc.TraceEvents[5]
	if last.Ph != "X" || last.Cat != "grid" || last.Dur != 120000 {
		t.Errorf("cell event not a complete grid span: %+v", last)
	}
	dec := doc.TraceEvents[2]
	if dec.Cat != "filter" || dec.Args["reason"] != "EMIT_SPECLOAD" {
		t.Errorf("decision event malformed: %+v", dec)
	}
}

func TestWriteCSVStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTrace().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("not valid CSV: %v", err)
	}
	if len(rows) != 7 { // header + 6 events
		t.Fatalf("rows = %d, want 7", len(rows))
	}
	header := rows[0]
	if len(header) != len(csvColumns) {
		t.Fatalf("header has %d columns, want %d", len(header), len(csvColumns))
	}
	col := map[string]int{}
	for i, name := range header {
		col[name] = i
	}
	for _, name := range []string{"kind", "method", "reason", "clause", "stride", "issued", "cell"} {
		if _, ok := col[name]; !ok {
			t.Fatalf("missing column %q", name)
		}
	}
	for i, row := range rows[1:] {
		if len(row) != len(header) {
			t.Errorf("row %d has %d fields, want %d", i+1, len(row), len(header))
		}
	}
	if got := rows[1][col["kind"]]; got != "compile" {
		t.Errorf("first row kind = %q, want compile", got)
	}
	if got := rows[3][col["reason"]]; got != "EMIT_SPECLOAD" {
		t.Errorf("decision row reason = %q", got)
	}
	// The clause column contains commas; the CSV reader must have
	// reassembled it as one field.
	if got := rows[1][col["clause"]]; got != "" {
		t.Errorf("compile row clause = %q, want empty", got)
	}
}

func TestDecisionLogFormat(t *testing.T) {
	log := sampleTrace().DecisionLog()
	for _, want := range []string{
		"cell jess/small/Pentium4/INTER+INTRA/compact",
		"method ::findInMemory  [INTER+INTRA, compiled at invocation 2]",
		"loop @B10: LOOP_ACCEPTED — 20 trips (capped), 11 LDG nodes, 462 steps",
		"L@5 arrayload",
		"stride +4 (ratio 1.00 over 19 samples) -> EMIT_SPECLOAD",
		"pair (L@5, L@12) getfield",
		"disp +20 -> EMIT_DEREF",
		"site L@5: issued=2615 useless=1255 dropped=0",
	} {
		if !strings.Contains(log, want) {
			t.Errorf("decision log missing %q\n%s", want, log)
		}
	}
}

func TestDecisionLogSiteAggregationLastWins(t *testing.T) {
	tr := NewTrace()
	tr.Compile(CompileEvent{Method: "m", Mode: "INTER"})
	// Warmup flush, then measured-run flush: the log must report the
	// second (measured) numbers only.
	tr.Site(SiteEvent{Method: "m", Site: 3, Kind: "prefetch", Issued: 999, Useless: 999})
	tr.Site(SiteEvent{Method: "m", Site: 3, Kind: "prefetch", Issued: 10, Useless: 2})
	log := tr.DecisionLog()
	if !strings.Contains(log, "site L@3: issued=10 useless=2 dropped=0") {
		t.Errorf("site aggregation not last-wins:\n%s", log)
	}
	if strings.Contains(log, "999") {
		t.Errorf("warmup site numbers leaked into log:\n%s", log)
	}
}

func TestTraceConcurrentUse(t *testing.T) {
	tr := NewTrace()
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				switch i % 3 {
				case 0:
					tr.Compile(CompileEvent{Method: "m", Invocations: i})
				case 1:
					tr.Decision(DecisionEvent{Method: "m", Instr: i, Pair: -1})
				default:
					tr.Cell(CellEvent{Cell: "c"})
				}
			}
		}(w)
	}
	wg.Wait()
	if tr.Len() != workers*per {
		t.Fatalf("Len = %d, want %d", tr.Len(), workers*per)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("concurrent trace export is not valid JSON")
	}
}

// nopRecorder embeds Nop the way a partial Recorder implementation would:
// it overrides Cell and takes every other event from Nop.
type nopRecorder struct {
	Nop
	cells *int
}

func (r nopRecorder) Cell(CellEvent) { *r.cells++ }

// TestNopRecorderImplementsRecorder drives an embedded Nop through every
// Recorder method.
func TestNopRecorderImplementsRecorder(t *testing.T) {
	cells := 0
	var r Recorder = nopRecorder{cells: &cells}
	r.Compile(CompileEvent{})
	r.Loop(LoopEvent{})
	r.Decision(DecisionEvent{})
	r.Site(SiteEvent{})
	r.Cell(CellEvent{})
	r.HW(HWEvent{})
	if cells != 1 {
		t.Errorf("overriding method saw %d cell events, want 1", cells)
	}
	var nop Recorder = Nop{}
	nop.Compile(CompileEvent{})
	nop.Loop(LoopEvent{})
	nop.Decision(DecisionEvent{})
	nop.Site(SiteEvent{})
	nop.Cell(CellEvent{})
	nop.HW(HWEvent{})
}

func TestWriteCSVQuoting(t *testing.T) {
	tr := NewTrace()
	tr.Cell(CellEvent{Cell: "x", Err: `boom, with "quotes"` + "\nand newline"})
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(&buf)
	r.FieldsPerRecord = -1
	rows, err := r.ReadAll()
	if err != nil {
		t.Fatalf("quoted CSV does not round-trip: %v\n%s", err, buf.String())
	}
	got := rows[1][len(rows[0])-1]
	if got != `boom, with "quotes"`+"\nand newline" {
		t.Errorf("error field mangled: %q", got)
	}
}

func TestDecisionLogEdgeCases(t *testing.T) {
	tr := NewTrace()
	// A loop with no loads is reported without fabricated trip counts.
	tr.Loop(LoopEvent{Method: "m1", Loop: 2, Verdict: LoopNoLoads})
	// A decision with no matching loop event lands in the orphan section
	// of a method that never had a compile event.
	tr.Decision(DecisionEvent{Method: "m2", Loop: 9, Instr: 4, Pair: -1,
		Op: "getfield", Stride: 128, Ratio: 0.9, Samples: 10, Reason: EmitInter})
	// Load-site attribution caps at maxLoadSites, heaviest first.
	for i := 0; i < maxLoadSites+5; i++ {
		tr.Site(SiteEvent{Method: "m3", Site: i, Kind: "load",
			Count: 1, StallCycles: uint64(1000 - i)})
	}
	log := tr.DecisionLog()

	if !strings.Contains(log, "loop @B2: LOOP_NO_LOADS") {
		t.Errorf("missing no-loads loop line:\n%s", log)
	}
	if strings.Contains(log, "LOOP_NO_LOADS — 0 trips") {
		t.Errorf("no-loads loop reports fabricated trips:\n%s", log)
	}
	if !strings.Contains(log, "method m2\n") {
		t.Errorf("method without compile event missing plain header:\n%s", log)
	}
	if !strings.Contains(log, "L@4 getfield") || !strings.Contains(log, "EMIT_INTER") {
		t.Errorf("orphan decision missing:\n%s", log)
	}
	if n := strings.Count(log, "m3@"); n != maxLoadSites {
		t.Errorf("load stall section has %d sites, want %d", n, maxLoadSites)
	}
	if !strings.Contains(log, "m3@0: 1 loads, 1000 stall cycles") {
		t.Errorf("heaviest stall site not first:\n%s", log)
	}
	if strings.Contains(log, "m3@14") {
		t.Errorf("sites beyond the cap leaked into the log:\n%s", log)
	}
}

// TestDecisionLogPredictionSources covers the verdict lines of the static
// and PGO prediction sources, cell notes, and site ordering.
func TestDecisionLogPredictionSources(t *testing.T) {
	tr := NewTrace()
	tr.Cell(CellEvent{Cell: "a", Shared: true})
	tr.Cell(CellEvent{Cell: "b", Err: "boom"})
	tr.Compile(CompileEvent{Method: "m", Mode: "INTER"})
	tr.Loop(LoopEvent{Method: "m", Loop: 1, Verdict: LoopStaticPredicted, Nodes: 3, Src: "static"})
	tr.Decision(DecisionEvent{Method: "m", Loop: 1, Instr: 2, Pair: -1, Op: "getfield",
		Stride: 0, Samples: 4, Ratio: 1, Reason: FilterNoPattern, Src: "static"})
	tr.Loop(LoopEvent{Method: "m", Loop: 2, Verdict: LoopPGOMiss, Src: "pgo"})
	tr.Loop(LoopEvent{Method: "m", Loop: 3, Verdict: LoopSmallTrip, Trips: 1, NaturalExit: true, Nodes: 2, Src: "pgo"})
	for _, site := range []int{7, 5} {
		tr.Site(SiteEvent{Method: "m", Site: site, Kind: "prefetch", Issued: 1})
	}
	for _, s := range []SiteEvent{
		{Method: "z", Site: 2, Kind: "load", StallCycles: 5},
		{Method: "z", Site: 1, Kind: "load", StallCycles: 5},
		{Method: "y", Site: 9, Kind: "load", StallCycles: 5},
	} {
		tr.Site(s)
	}
	log := tr.DecisionLog()
	for _, want := range []string{
		"cell a (shared)\n",
		"cell b ERROR: boom\n",
		"loop @B1: LOOP_STATIC_PREDICTED [via static] — 3 LDG nodes, no inspection  [static analysis",
		"stride 0 (loop-invariant) (ratio 1.00 over 4 samples) -> FILTER_NO_PATTERN [via static]",
		"loop @B2: LOOP_PGO_MISS [via pgo]  [PGO: no profile entry",
		"loop @B3: LOOP_SMALL_TRIP [via pgo] — 1 trips (natural exit), 2 LDG nodes, replayed from profile  [Sec. 3: small trip",
		"site L@5: issued=1 useless=0 dropped=0\n  site L@7:",
		"y@9: 0 loads, 5 stall cycles\n  z@1: 0 loads, 5 stall cycles\n  z@2:",
	} {
		if !strings.Contains(log, want) {
			t.Errorf("decision log missing %q\n%s", want, log)
		}
	}
}

// failWriter fails every write after the first ok bytes.
type failWriter struct{ ok int }

func (w *failWriter) Write(p []byte) (int, error) {
	if len(p) > w.ok {
		n := w.ok
		w.ok = 0
		return n, errors.New("disk full")
	}
	w.ok -= len(p)
	return len(p), nil
}

// TestExportsReportWriteErrors pins that both exports surface a failing
// writer instead of truncating silently, wherever the failure lands.
func TestExportsReportWriteErrors(t *testing.T) {
	tr := sampleTrace()
	tr.Cell(CellEvent{Cell: "c", Wall: time.Hour, Err: "trap"})
	var full bytes.Buffer
	if err := tr.WriteCSV(&full); err != nil {
		t.Fatal(err)
	}
	for ok := 0; ok < full.Len(); ok += 97 {
		if err := tr.WriteCSV(&failWriter{ok: ok}); err == nil {
			t.Fatalf("WriteCSV with a writer failing after %d bytes returned nil", ok)
		}
	}
	if err := tr.WriteChromeTrace(&failWriter{}); err == nil {
		t.Fatal("WriteChromeTrace to a failing writer returned nil")
	}
}
