package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	aapsm "repro"
)

// secondsSumRE matches the value of every wall-clock `*_seconds_sum` series;
// those are the only parts of the exposition a fixed clock cannot pin.
var secondsSumRE = regexp.MustCompile(`(?m)^(aapsmd_[a-z0-9_]*_seconds_sum(\{[^}]*\})?) [0-9.]+$`)

// TestMetricsGolden pins the full /metrics body — names, HELP text, types,
// series order, label sets and value formats — against
// testdata/metrics.golden. A server on a fixed clock serves a fixed request
// script covering create, a reused create, detect (twice: nothing is kept),
// edits with a batch re-detect, a shed request, an LRU eviction and an
// explicit delete. After an intentional exposition change, replace the
// golden file with the masked body the failure prints.
func TestMetricsGolden(t *testing.T) {
	fixed := time.Date(2026, 7, 26, 0, 0, 0, 0, time.UTC)
	srv, tc := newTestServer(t, Config{
		Engine:        aapsm.NewEngine(),
		StoreCapacity: 2,
		MaxInflight:   1,
		QueueWait:     -1, // shed immediately: no queue-wait timing
		now:           func() time.Time { return fixed },
	})
	create := func(i int) createResponse {
		var c createResponse
		if err := json.Unmarshal(tc.must("POST", "/v1/sessions", layoutText(t, loadLayout(i)), 200), &c); err != nil {
			t.Fatal(err)
		}
		return c
	}
	b := create(91)
	la := loadLayout(90)
	a := create(90)
	if again := create(90); !again.Reused || again.ID != a.ID {
		t.Fatalf("second create of the same layout = %+v, want reuse of %s", again, a.ID)
	}
	tc.must("GET", "/v1/sessions/"+a.ID+"/detect", nil, 200)
	tc.must("GET", "/v1/sessions/"+a.ID+"/detect", nil, 200) // runs the handler again
	tc.must("POST", "/v1/sessions/"+a.ID+"/edits", encodeJSON(t, moveOp(la, 0)), 200)
	tc.must("POST", "/v1/sessions/"+a.ID+"/edits?detect=1", encodeJSON(t, moveOp(la, 1)), 200)
	tc.must("GET", "/v1/sessions/"+a.ID+"/detect", nil, 200)
	tc.must("GET", "/v1/sessions/"+a.ID+"/assign", nil, 200)

	srv.sem <- struct{}{} // saturate the one admission slot
	tc.must("GET", "/v1/sessions/"+a.ID, nil, 429)
	<-srv.sem

	c := create(92) // capacity 2: evicts b, the least recently used
	tc.must("GET", "/v1/sessions/"+b.ID, nil, 404)
	tc.must("DELETE", "/v1/sessions/"+c.ID, nil, 204)

	got := secondsSumRE.ReplaceAllString(string(tc.must("GET", "/metrics", nil, 200)), "$1 <masked>")
	want, err := os.ReadFile(filepath.Join("testdata", "metrics.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d:\n got  %q\n want %q", i+1, g, w)
				break
			}
		}
		t.Fatalf("/metrics differs from testdata/metrics.golden; masked body:\n%s", got)
	}
}

// TestRegistryRejectsBadNames: the naming rules are checked at declaration,
// one bad registration per rule, each of which must panic.
func TestRegistryRejectsBadNames(t *testing.T) {
	zero := func() int64 { return 0 }
	for _, c := range []struct {
		name    string
		declare func(r *registry)
		want    string
	}{
		{"prefix", func(r *registry) { r.counter("edits_total", "h", zero) }, "lacks the aapsmd_ prefix"},
		{"snake_case", func(r *registry) { r.gauge("aapsmd_sessionsLive", "h", zero) }, "not snake_case"},
		{"duplicate", func(r *registry) {
			r.gauge("aapsmd_sessions_live", "h", zero)
			r.gauge("aapsmd_sessions_live", "h", zero)
		}, "registered twice"},
		{"counter_without_total", func(r *registry) { r.counter("aapsmd_edits", "h", zero) }, "_total is required on counters"},
		{"total_gauge", func(r *registry) { r.gauge("aapsmd_retries_total", "h", zero) }, "_total is required on counters and reserved for them"},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				v := recover()
				if v == nil {
					t.Fatal("bad registration did not panic")
				}
				if msg := fmt.Sprint(v); !strings.Contains(msg, c.want) {
					t.Fatalf("panic %q, want it to mention %q", msg, c.want)
				}
			}()
			c.declare(&registry{})
		})
	}
}
