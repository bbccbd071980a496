package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"pti/internal/transport"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10}, {0.01, 1}, {0, 1}}
	for _, c := range cases {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("percentile([7], 0.9) = %v, want 7", got)
	}
}

func TestMedianAndRatio(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Errorf("median(3,1,2) = %v", got)
	}
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v", got)
	}
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3,4) = %v", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3,0) = %v, want 0", got)
	}
	if got := usOf(1500 * time.Nanosecond); got != 1.5 {
		t.Errorf("usOf(1500ns) = %v", got)
	}
}

func TestLatenciesReservoir(t *testing.T) {
	l := newLatencies(1)
	n := reservoirCap * 3
	for i := 0; i < n; i++ {
		l.add(time.Duration(i%1000) * time.Microsecond)
	}
	if got := len(l.samples); got != reservoirCap {
		t.Errorf("kept %d samples, want the cap %d", got, reservoirCap)
	}
	p50, p90, seen := l.drain()
	if seen != n {
		t.Errorf("seen %d ops, want %d", seen, n)
	}
	if _, _, again := l.drain(); again != 0 {
		t.Errorf("drain left %d ops behind", again)
	}
	// Uniform 0..999 us: the reservoir keeps the quantiles within a
	// few percent.
	if math.Abs(p50-500) > 20 || math.Abs(p90-900) > 20 {
		t.Errorf("p50 %v p90 %v, want about 500 and 900", p50, p90)
	}
}

func TestStatsSum(t *testing.T) {
	a := transport.StatsSnapshot{BytesSent: 10, ObjectsDelivered: 3}
	b := transport.StatsSnapshot{BytesSent: 4, ObjectsDelivered: 1, RelRetransmits: 2}
	if got := statsSum(a, b, 1); got.BytesSent != 14 || got.ObjectsDelivered != 4 || got.RelRetransmits != 2 {
		t.Errorf("sum = %+v", got)
	}
	if got := statsSum(a, b, -1); got.BytesSent != 6 || got.ObjectsDelivered != 2 {
		t.Errorf("difference = %+v", got)
	}
	if err := checkSubscriber("s", transport.StatsSnapshot{ObjectsReceived: 3, ObjectsDelivered: 2, ObjectsDropped: 1}); err != nil {
		t.Error(err)
	}
	if err := checkSubscriber("s", transport.StatsSnapshot{ObjectsReceived: 3, ObjectsDelivered: 2}); err == nil {
		t.Error("a lost object passed the accounting check")
	}
}

func TestTracerStages(t *testing.T) {
	tr := newTracer()
	t0 := time.Now()
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	tr.begin()
	for _, e := range []traceEvent{
		{transport.EventObjectSent, at(2)},
		{transport.EventObjectReceived, at(10)},
		{transport.EventConformanceChecked, at(12)},
		{transport.EventConformanceChecked, at(15)},
		{transport.EventDelivered, at(20)},
	} {
		tr.events = append(tr.events, e)
	}
	if !tr.finishObject(t0, at(21)) {
		t.Fatal("complete op rejected")
	}
	rep := tr.report()
	want := map[string]float64{"send": 2, "link": 8, "resolve": 5, "bind": 5, "handler": 1}
	for k, v := range want {
		if rep.p50[k] != v {
			t.Errorf("stage %s = %v, want %v", k, rep.p50[k], v)
		}
	}
	if rep.e2eP50 != 21 || rep.sum != 21 || rep.unattributed != 0 || rep.checks != 2 || rep.n != 1 {
		t.Errorf("report = %+v", rep)
	}

	tr.begin()
	if tr.finishObject(t0, at(5)) {
		t.Error("op with no events accepted")
	}
	tr.events = append(tr.events, traceEvent{transport.EventInvoked, at(30)})
	if !tr.finishCall(t0, at(50)) {
		t.Fatal("complete call rejected")
	}
	if rep := tr.report(); rep.p50["request"] != 30 || rep.p50["reply"] != 20 {
		t.Errorf("call stages = %+v", rep.p50)
	}
}

// benchmarkFile is the repository's BENCHMARK.json as this command
// must match it.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, listed []metricSpec, got []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}) {
		if len(got) != len(listed) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the command prints %d", kind, len(got), len(listed))
		}
		for i, m := range got {
			if s := listed[i]; m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, command %+v", kind, i, m, s)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer, b.PerLayer)
}

// runShort runs one short run and returns its parsed result line.
func runShort(t *testing.T, name string, trace bool) map[string]float64 {
	t.Helper()
	var out bytes.Buffer
	if err := run(&out, options{workload: name, seed: 7, duration: 400 * time.Millisecond, trace: trace}); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", name, err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d\n%s", name, res.Correct, res.Attempted, res.Failed, out.String())
	}
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	if len(res.Metrics) != len(specs) {
		t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(specs))
	}
	values := map[string]float64{}
	for _, s := range specs {
		m, ok := res.Metrics[s.name]
		if !ok || m.Unit != s.unit {
			t.Errorf("%s: metric %s missing or in the wrong unit (%+v)", name, s.name, m)
		}
		values[s.name] = m.Value
	}
	return values
}

func TestSmokeTimed(t *testing.T) {
	for _, w := range workloads {
		v := runShort(t, w.name, false)
		for _, s := range endToEnd {
			if v[s.name] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, s.name, v[s.name])
			}
		}
		if v["ok_ratio"] != 1 {
			t.Errorf("%s: ok_ratio %v", w.name, v["ok_ratio"])
		}
	}
}

func TestSmokeTraced(t *testing.T) {
	stream := runShort(t, "stream-warm", true)
	contact := runShort(t, "first-contact", true)
	invoke := runShort(t, "invoke-soap", true)

	// Each workload exercises the path it claims.
	if got := stream["transport.typeinfo_requests_per_op"]; got != 0 {
		t.Errorf("stream-warm fetched type info: %v per op", got)
	}
	if got := contact["transport.typeinfo_requests_per_op"]; got < 1 {
		t.Errorf("first-contact: %v type-info requests per op, want >= 1", got)
	}
	if got := contact["conform.checks_per_op"]; got < 1 {
		t.Errorf("first-contact: %v conformance checks per op", got)
	}
	if got := stream["transport.compiled_delivery_ratio"]; got != 1 {
		t.Errorf("stream-warm: compiled delivery ratio %v", got)
	}
	for _, m := range []string{"transport.link_us", "transport.bind_us", "transport.acks_per_op"} {
		if stream[m] <= 0 {
			t.Errorf("stream-warm: %s = %v", m, stream[m])
		}
	}
	for _, m := range []string{"transport.request_us", "transport.reply_us"} {
		if invoke[m] <= 0 || stream[m] != 0 {
			t.Errorf("%s: invoke-soap %v, stream-warm %v", m, invoke[m], stream[m])
		}
	}
	for _, v := range []map[string]float64{stream, contact, invoke} {
		for _, m := range []string{"wire.encode_ns", "conform.check_cold_us", "proxy.call_ns", "registry.compile_us", "trace.overhead_ratio"} {
			if v[m] <= 0 {
				t.Errorf("%s = %v, want > 0", m, v[m])
			}
		}
	}
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, options{workload: "nope", duration: time.Second}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if strings.Contains(out.String(), "{") {
		t.Error("a failed run printed a result line")
	}
}

func TestRunContextNamesMachine(t *testing.T) {
	ctx := runContext(3)
	for _, k := range []string{"seed", "gomaxprocs", "nproc", "cpu", "go", "network"} {
		if _, ok := ctx[k]; !ok {
			t.Errorf("run context lacks %s", k)
		}
	}
	if ctx["network"] != "loopback TCP" || ctx["cpu"] == "" {
		t.Errorf("run context = %v", ctx)
	}
}

func TestOutputChecksRejectWrongValues(t *testing.T) {
	r := streamObjects(3, 1)[0]
	got := SensorReading{
		IsValid: r.Valid, ReadingSeq: r.Seq, StationName: r.Station, MeasuredValue: r.Value,
		UnitName: r.Unit, SignalLevel: r.Level, ReadingCount: r.Count, ReadingTags: r.Tags,
		ExtraAttrs: r.Attrs, OriginPos: r.Origin,
	}
	if !sameReading(r, &got) {
		t.Fatal("faithful delivery rejected")
	}
	got.ExtraAttrs = map[string]string{"site": "elsewhere"}
	if sameReading(r, &got) {
		t.Error("changed map member accepted")
	}
	if sameReading(r, nil) {
		t.Error("missing object accepted")
	}

	p := contactPairs[0]
	sent := p.gen(rand.New(rand.NewSource(1)))
	if p.match(sent, &SupportTicket{}) || p.match(sent, nil) {
		t.Error("first-contact check accepted an object of the wrong type")
	}

	a := invokeCalls(5, 1)[0]
	want := stamp(a.entry, a.note)
	if !sameEntry([]interface{}{want}, want) || !sameEntry([]interface{}{&want}, want) {
		t.Error("correct call result rejected")
	}
	off := want
	off.Version++
	if sameEntry([]interface{}{off}, want) || sameEntry(nil, want) || sameEntry([]interface{}{"x"}, want) {
		t.Error("wrong call result accepted")
	}
}
