package trace_test

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/workload"
)

// checkAgainstStd is the differential property: the line decoder
// (fast path, then fallback) and plain json.Unmarshal agree on whether
// the line is an event and, if so, on the event — the time compared
// with == too, which also compares the location pointer.
func checkAgainstStd(t *testing.T, line []byte) {
	t.Helper()
	var want, got trace.Event
	wantErr := json.Unmarshal(line, &want)
	gotErr := trace.DecodeLine(line, &got)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: err = %v, encoding/json says %v", line, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if !reflect.DeepEqual(got, want) || got.Time != want.Time {
		t.Fatalf("%q:\n got %#v\nwant %#v", line, got, want)
	}
}

// attackTrace has every injector several times over, each attacker a
// fresh actor: the alert-dense counterpart of StandardMix.
func attackTrace(seed int64) *workload.Trace {
	g := workload.NewGenerator(seed, time.Date(2026, 6, 1, 9, 0, 0, 0, time.UTC))
	t := &workload.Trace{}
	for n := 0; n < 20; n++ {
		g.Benign(t, []string{"alice", "bob"}, 50)
		g.InjectRansomware(t, fmt.Sprintf("mallory-rw-%d", n), 12)
		g.InjectExfil(t, fmt.Sprintf("mallory-ex-%d", n), 8<<20, 4)
		g.InjectMiner(t, fmt.Sprintf("mallory-cm-%d", n), 6, 45*time.Second, 15*time.Second)
		g.InjectBruteForce(t, fmt.Sprintf("203.0.113.%d", n+1), 12, true)
		g.InjectLowSlow(t, fmt.Sprintf("198.51.100.%d", n+1), 30, 30*time.Second)
		g.InjectTerminalRecon(t, fmt.Sprintf("mallory-tr-%d", n), fmt.Sprintf("203.1.0.%d", n+1))
	}
	return t
}

// TestFastDecodeWholeTraces: every line json.Marshal makes of the
// generated traces is taken by the fast path (or the speed-up is gone
// without a test noticing) and decodes to what encoding/json decodes.
func TestFastDecodeWholeTraces(t *testing.T) {
	for name, tr := range map[string]*workload.Trace{
		"standard_mix": workload.StandardMix(11, 6000),
		"attacks":      attackTrace(7),
	} {
		for i, e := range tr.Events {
			// As bench/ does: an index hidden in the nanoseconds.
			e.Time = e.Time.Truncate(time.Millisecond).Add(time.Duration(i))
			line, err := json.Marshal(e)
			if err != nil {
				t.Fatal(err)
			}
			var fast trace.Event
			if !trace.DecodeEventFast(line, &fast) {
				t.Fatalf("%s event %d: fast path declined %s", name, i, line)
			}
			checkAgainstStd(t, line)
		}
	}
}

// TestFastDecodeAccepts: forms beyond what json.Marshal emits that the
// fast path takes, each equal to encoding/json.
func TestFastDecodeAccepts(t *testing.T) {
	for _, line := range []string{
		`{}`,
		` { "seq" : 7 , "kind" : "exec" } ` + "\r\n",
		`{"seq":0,"bytes":-0,"status":-12,"cpu_millis":9223372036854775807}`,
		`{"bytes":-9223372036854775808,"seq":9999999999999999999}`,
		`{"entropy":-0}`, `{"entropy":1e3}`, `{"entropy":1.5E-7}`, `{"entropy":0.25}`,
		`{"time":"2026-06-01T09:00:00Z"}`,
		`{"time":"2024-02-29T23:59:59.5Z"}`,
		`{"time":"0000-01-01T00:00:00.000000001Z"}`,
		`{"time":"9999-12-31T23:59:59.999999999Z"}`,
		`{"code":"a\"b\\c\/d\b\f\n\r\t\u003c\u00e9\u2028\u0000\uFFFD"}`,
		`{"user":"müller","detail":"日本語 ok"}`,
		`{"fields":{}}`,
		`{"fields":{"rule":"RW-001","a\nb":"\u0026","rule":"last wins"}}`,
		`{"success":true}`, `{"success":false}`,
	} {
		var e trace.Event
		if !trace.DecodeEventFast([]byte(line), &e) {
			t.Errorf("fast path declined %s", line)
		}
		checkAgainstStd(t, []byte(line))
	}
}

// TestFastDecodeDeclines: each reason to decline really reaches the
// fallback, which then decides the event or the error.
func TestFastDecodeDeclines(t *testing.T) {
	for reason, line := range map[string]string{
		"unknown key":              `{"seq":1,"extra":2}`,
		"case-variant key":         `{"Seq":1}`,
		"escaped key":              `{"s\u0065q":1}`,
		"duplicate key":            `{"seq":1,"seq":2}`,
		"duplicate fields":         `{"fields":{"a":"1"},"fields":{"b":"2"}}`,
		"null string":              `{"user":null}`,
		"null number":              `{"seq":null}`,
		"null time":                `{"time":null}`,
		"null fields":              `{"fields":null}`,
		"null field value":         `{"fields":{"a":null}}`,
		"top-level null":           `null`,
		"top-level array":          `[]`,
		"offset time":              `{"time":"2026-06-01T09:00:00+02:00"}`,
		"zero offset time":         `{"time":"2026-06-01T09:00:00+00:00"}`,
		"lower-case z":             `{"time":"2026-06-01T09:00:00z"}`,
		"lower-case t":             `{"time":"2026-06-01t09:00:00Z"}`,
		"leap second":              `{"time":"2026-06-30T23:59:60Z"}`,
		"hour 24":                  `{"time":"2026-06-01T24:00:00Z"}`,
		"february 30":              `{"time":"2026-02-30T00:00:00Z"}`,
		"february 29 off-year":     `{"time":"2100-02-29T00:00:00Z"}`,
		"month 13":                 `{"time":"2026-13-01T00:00:00Z"}`,
		"ten fraction digits":      `{"time":"2026-06-01T09:00:00.0000000001Z"}`,
		"empty fraction":           `{"time":"2026-06-01T09:00:00.Z"}`,
		"comma fraction":           `{"time":"2026-06-01T09:00:00,5Z"}`,
		"escaped time":             `{"time":"2026-06-01T09:00:00\u005a"}`,
		"short time":               `{"time":"2026-06-01"}`,
		"numeric time":             `{"time":1748768400}`,
		"surrogate pair":           `{"code":"\ud83d\ude00"}`,
		"lone surrogate":           `{"code":"\udc00"}`,
		"invalid UTF-8":            "{\"code\":\"a\xffb\"}",
		"UTF-8 encoded surrogate":  "{\"code\":\"\xed\xa0\x80\"}",
		"split by escape":          "{\"code\":\"\xc3\\n\xa9\"}",
		"bad escape":               `{"code":"\x41"}`,
		"short unicode escape":     `{"code":"\u12"}`,
		"raw control character":    "{\"code\":\"a\tb\"}",
		"unterminated string":      `{"code":"abc`,
		"exponent integer":         `{"seq":1e3}`,
		"fraction integer":         `{"seq":1.0}`,
		"leading zero":             `{"seq":01}`,
		"negative unsigned":        `{"seq":-0}`,
		"20-digit integer":         `{"seq":18446744073709551615}`,
		"int64 overflow":           `{"bytes":9223372036854775808}`,
		"int64 underflow":          `{"bytes":-9223372036854775809}`,
		"float overflow":           `{"entropy":1e999}`,
		"bare minus":               `{"entropy":-}`,
		"leading dot":              `{"entropy":.5}`,
		"trailing dot":             `{"entropy":5.}`,
		"empty exponent":           `{"entropy":5e}`,
		"hex float":                `{"entropy":0x1p-2}`,
		"string for number":        `{"seq":"1"}`,
		"number for string":        `{"user":1}`,
		"number for bool":          `{"success":1}`,
		"nested field value":       `{"fields":{"a":{"b":"c"}}}`,
		"array field value":        `{"fields":{"a":["b"]}}`,
		"numeric field value":      `{"fields":{"a":1}}`,
		"fields not an object":     `{"fields":"x"}`,
		"nested unknown":           `{"extra":{"deep":[1,2,{"x":null}]}}`,
		"trailing garbage":         `{"seq":1}x`,
		"second object":            `{"seq":1}{"seq":2}`,
		"trailing comma":           `{"seq":1,}`,
		"missing colon":            `{"seq" 1}`,
		"missing comma":            `{"seq":1 "kind":"x"}`,
		"unterminated object":      `{"seq":1`,
		"byte-order mark":          "\xef\xbb\xbf{\"seq\":1}",
		"only whitespace":          `   `,
		"truncated literal":        `{"success":tru}`,
		"literal with tail":        `{"success":truely}`,
		"upper-case literal":       `{"success":True}`,
		"form feed as whitespace":  "{\f\"seq\":1}",
		"single-quoted":            `{'seq':1}`,
		"unterminated field value": `{"fields":{"a":"b"`,
	} {
		var e trace.Event
		if trace.DecodeEventFast([]byte(line), &e) {
			t.Errorf("%s: fast path accepted %q", reason, line)
		}
		checkAgainstStd(t, []byte(line))
	}
}

// TestFastDecodeOneAllocation pins the allocation claim: a canonical
// escape-free line without fields costs its backing string and
// nothing else.
func TestFastDecodeOneAllocation(t *testing.T) {
	line, err := json.Marshal(trace.Event{
		Seq: 3, Time: time.Date(2026, 6, 1, 9, 0, 4, 553184057, time.UTC), Kind: trace.KindFileOp,
		User: "carol", SrcIP: "10.0.0.7", KernelID: "kern-b03", Op: "write",
		Target: "notebooks/analysis_5.ipynb", Bytes: 20710, Entropy: 4.781682271667764, Success: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var e trace.Event
	allocs := testing.AllocsPerRun(200, func() {
		if !trace.DecodeEventFast(line, &e) {
			t.Fatal("fast path declined the canonical line")
		}
	})
	if allocs != 1 {
		t.Fatalf("%.1f allocations per event, want 1", allocs)
	}
	// The in-memory decoder adds nothing per message either.
	batch := []byte(strings.Repeat(string(line)+"\n", 8))
	allocs = testing.AllocsPerRun(200, func() {
		d := trace.NewBytesDecoder(batch)
		for {
			if _, err := d.Next(); err != nil {
				break
			}
		}
	})
	if allocs != 8 {
		t.Fatalf("%.1f allocations per 8-event message, want 8", allocs)
	}
}

// TestBytesDecoderMatchesStream: the in-memory decoder cuts lines as
// the stream decoder does — CRLF, blank lines, a last line without a
// newline, the same line numbers in errors — and its events do not
// alias the payload.
func TestBytesDecoderMatchesStream(t *testing.T) {
	for _, payload := range []string{
		"",
		"\n\r\n",
		`{"seq":1}`,
		"{\"seq\":1}\r\n\r\n\n{\"seq\":2,\"code\":\"a\\nb\"}\n{\"Seq\":3}",
		"{\"seq\":1}\n\n{nope\n{\"seq\":3}\n",
		"{\"seq\":1}\r\r\n",
		"\r",
		"   \n",
	} {
		stream := trace.NewDecoder(strings.NewReader(payload))
		buf := []byte(payload)
		mem := trace.NewBytesDecoder(buf)
		var events []trace.Event
		for {
			want, wantErr := stream.Next()
			got, gotErr := mem.Next()
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%q: in-memory (%+v, %v), stream (%+v, %v)", payload, got, gotErr, want, wantErr)
			}
			if gotErr != nil {
				break
			}
			events = append(events, got)
		}
		kept := fmt.Sprint(events)
		for i := range buf {
			buf[i] = 'x'
		}
		if fmt.Sprint(events) != kept {
			t.Fatalf("%q: events changed when the payload was overwritten", payload)
		}
	}
}

// TestDecoderLineLimit: both sources refuse a line of 16 MiB, and the
// stream's buffer grows from its small start to take one just under.
func TestDecoderLineLimit(t *testing.T) {
	long := `{"code":"` + strings.Repeat("a", 16<<20) + `"}` + "\n"
	for name, d := range map[string]*trace.Decoder{
		"stream": trace.NewDecoder(strings.NewReader(long)),
		"memory": trace.NewBytesDecoder([]byte(long)),
	} {
		if _, err := d.Next(); !errors.Is(err, bufio.ErrTooLong) {
			t.Errorf("%s: err = %v, want bufio.ErrTooLong", name, err)
		}
	}
	fits := `{"code":"` + strings.Repeat("a", 1<<20) + `"}` + "\n"
	d := trace.NewDecoder(strings.NewReader(fits + fits))
	for i := 0; i < 2; i++ {
		if e, err := d.Next(); err != nil || len(e.Code) != 1<<20 {
			t.Fatalf("1 MiB line %d: len %d, err %v", i, len(e.Code), err)
		}
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("after the last line: %v, want io.EOF", err)
	}
}

func FuzzJSONEventDecode(f *testing.F) {
	seen := map[trace.Kind]bool{}
	for _, e := range workload.StandardMix(11, 600).Events {
		if !seen[e.Kind] {
			seen[e.Kind] = true
			line, _ := json.Marshal(e)
			f.Add(line)
		}
	}
	g := workload.NewGenerator(5, time.Date(2026, 6, 1, 9, 0, 0, 0, time.UTC))
	for _, inject := range []func(*workload.Trace){
		func(t *workload.Trace) { g.InjectRansomware(t, "mallory-rw", 2) },
		func(t *workload.Trace) { g.InjectExfil(t, "mallory-ex", 1<<20, 2) },
		func(t *workload.Trace) { g.InjectMiner(t, "mallory-cm", 1, time.Second, time.Second) },
		func(t *workload.Trace) { g.InjectBruteForce(t, "203.0.113.66", 2, true) },
		func(t *workload.Trace) { g.InjectLowSlow(t, "198.51.100.9", 2, time.Second) },
		func(t *workload.Trace) { g.InjectTerminalRecon(t, "mallory-tr", "203.0.113.99") },
	} {
		t := &workload.Trace{}
		inject(t)
		for _, e := range t.Events {
			line, _ := json.Marshal(e)
			f.Add(line)
		}
	}
	alert, _ := json.Marshal(trace.Event{
		Kind: trace.KindAlert, Detail: "<script> & \u2028 \u2029 tab\t", Code: "if a < b && c > d:\n\tpass",
		Fields: map[string]string{"rule": "RW-001", "a<b": "x&y"}, Entropy: 7.99, SrcPort: 443, Status: -1,
	})
	f.Add(alert)
	for _, s := range []string{
		`{"code":"\u003c\u003e\u0026\u2028\u0000\uFFFD"}`,
		`{"code":"\ud83d\ude00"}`, `{"code":"\ud83d"}`, `{"code":"\udc00x"}`,
		"{\"code\":\"a\xffb\"}", "{\"user\":\"\xed\xa0\x80\"}", "{\"fields\":{\"\xc3\":\"\xa9\"}}",
		`{"seq":1,"seq":2}`, `{"Seq":1}`, `{"KIND":"exec","kind":"auth"}`, `{"s\u0065q":1}`,
		`{"user":null}`, `{"seq":null,"time":null,"fields":null,"success":null}`, `null`,
		`{"time":"2026-06-01T09:00:00+02:00"}`, `{"time":"2026-06-01T09:00:00z"}`,
		`{"time":"2026-06-30T23:59:60Z"}`, `{"time":"2024-02-29T12:00:00.123456789Z"}`,
		`{"time":"2023-02-29T12:00:00Z"}`, `{"time":"2026-06-01T09:00:00.1234567891Z"}`,
		`{"seq":1e3}`, `{"seq":1.0}`, `{"seq":01}`, `{"seq":-0}`, `{"bytes":-0}`,
		`{"seq":9223372036854775808}`, `{"bytes":9223372036854775808}`, `{"seq":18446744073709551616}`,
		`{"entropy":1e999}`, `{"entropy":-0.0e+0}`, `{"src_port":99999999999}`,
		`{"fields":{"a":{"b":"c"}}}`, `{"fields":{"a":"1","a":"2"}}`, `{"fields":{}}`, `{"extra":[1,{"x":null}]}`,
		`{"seq":1}x`, `{"seq":1}{"seq":2}`, "{\"seq\":1}\r\n", "  \t{ \"seq\" : 1 , \"kind\" : \"x\" }\n", `{}`, ``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		checkAgainstStd(t, line)
	})
}
