package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	aapsm "repro"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/gds"
	"repro/internal/server"
)

// editInput is the d4-sized layout the edit_session workload serves.
type editInput struct {
	gds    []byte
	layout *aapsm.Layout // the layout as the server reads it
	text   []byte        // its plain-text form, what GET /layout returns
}

func editSessionInput(p bench.Params) (*editInput, error) {
	l := bench.Generate("d4", p)
	var buf bytes.Buffer
	if err := gds.Write(&buf, l); err != nil {
		return nil, fmt.Errorf("write d4 gds: %w", err)
	}
	in := &editInput{gds: buf.Bytes()}
	var err error
	if in.layout, err = aapsm.ReadGDS(bytes.NewReader(in.gds)); err != nil {
		return nil, fmt.Errorf("read d4 gds: %w", err)
	}
	var text bytes.Buffer
	if err := aapsm.WriteLayoutText(&text, in.layout); err != nil {
		return nil, err
	}
	in.text = text.Bytes()
	return in, nil
}

// editStep moves one feature to rect.
type editStep struct {
	index int
	rect  aapsm.Rect
}

// editScript is the seeded edit sequence. Steps come in pairs: a ±10 nm move
// of one feature, then the move back, so after every even step the layout
// equals the generated one and the final state does not depend on how many
// edits a run completes.
type editScript struct {
	rng   *rand.Rand
	base  []aapsm.Feature
	steps []editStep
}

func newEditScript(seed int64, l *aapsm.Layout) *editScript {
	return &editScript{rng: rand.New(rand.NewSource(seed)), base: l.Features}
}

func (s *editScript) step(k int) editStep {
	deltas := [4][2]int64{{10, 0}, {-10, 0}, {0, 10}, {0, -10}}
	for len(s.steps) <= k {
		i := s.rng.Intn(len(s.base))
		d := deltas[s.rng.Intn(len(deltas))]
		r := s.base[i].Rect
		moved := aapsm.R(r.X0+d[0], r.Y0+d[1], r.X1+d[0], r.Y1+d[1])
		s.steps = append(s.steps, editStep{i, moved}, editStep{i, r})
	}
	return s.steps[k]
}

// daemonEngine mirrors the engine cmd/aapsmd builds from its flag defaults.
func daemonEngine() *aapsm.Engine {
	return aapsm.NewEngine(
		aapsm.WithProfile("bright-90nm"),
		aapsm.WithParallelism(0),
		aapsm.WithImprovedRecheck(false),
		aapsm.WithGraph(aapsm.PCG),
		aapsm.WithTJoinMethod(aapsm.GeneralizedGadgets),
	)
}

// daemon is aapsmd's handler stack behind a loopback listener.
type daemon struct {
	srv  *server.Server
	hs   *http.Server
	base string
	done chan error
}

// startDaemon serves server.New with cmd/aapsmd's default configuration.
func startDaemon() (*daemon, error) {
	srv := server.New(server.Config{
		Engine:             daemonEngine(),
		StoreCapacity:      1024,
		SessionTTL:         30 * time.Minute,
		RequestTimeout:     60 * time.Second,
		DetectWorkers:      1,
		MaxBodyBytes:       32 << 20,
		FlushInterval:      30 * time.Second,
		MaxInflight:        256,
		MaxSessionInflight: 16,
		QueueWait:          time.Second,
		BatchMax:           32,
		BatchWait:          2 * time.Millisecond,
		MaxStreams:         256,
		StreamHeartbeat:    15 * time.Second,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{
		srv: srv,
		hs: &http.Server{
			Handler:           srv.Handler(),
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       2 * time.Minute,
			WriteTimeout:      2 * time.Minute,
			IdleTimeout:       2 * time.Minute,
		},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the listener down and waits for the serve loop to return.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.hs.Shutdown(ctx)
	<-d.done
	d.srv.Close()
}

// client is one closed-loop connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{
		hc:   &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		base: base,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole body; the duration covers both.
func (c *client) do(ctx context.Context, method, path string, body []byte) (int, []byte, time.Duration, error) {
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, time.Since(t0), err
}

// stages are the read endpoints the reader cycles through.
var stages = []string{"detect", "correct", "mask", "drc"}

// wire forms of the responses the benchmark checks.
type (
	conflictWire struct {
		Edge     int    `json:"edge"`
		Kind     string `json:"kind"`
		Shifters [2]int `json:"shifters"`
		Feature  int    `json:"feature"`
		Deficit  int64  `json:"deficit"`
	}
	detectWire struct {
		Features   int            `json:"features"`
		Assignable bool           `json:"assignable"`
		Conflicts  []conflictWire `json:"conflicts"`
	}
	editWire struct {
		Applied     int `json:"applied"`
		Features    int `json:"features"`
		Incremental struct {
			FallbackDirty int `json:"fallback_dirty"`
		} `json:"incremental"`
		Batch *struct {
			QueueNS int64 `json:"queue_ns"`
			SolveNS int64 `json:"solve_ns"`
		} `json:"batch"`
		Detect      *detectWire `json:"detect"`
		DetectError string      `json:"detect_error"`
	}
	correctWire struct {
		AreaIncrease float64 `json:"area_increase_pct"`
	}
	errorWire struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
)

// checkRead validates one stage response. A 409 mask_inconsistent answer is
// a legitimate outcome of the mask stage.
func checkRead(stage string, status int, body []byte, features int) error {
	if stage == "mask" && status == http.StatusConflict {
		var e errorWire
		if json.Unmarshal(body, &e) == nil && e.Error.Code == "mask_inconsistent" {
			return nil
		}
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", stage, status, bytes.TrimSpace(body))
	}
	switch stage {
	case "mask":
		if len(body) == 0 {
			return errors.New("GET mask: empty body")
		}
	case "detect":
		var d detectWire
		if err := json.Unmarshal(body, &d); err != nil {
			return fmt.Errorf("GET detect: %w", err)
		}
		if d.Features != features {
			return fmt.Errorf("GET detect: %d features, want %d", d.Features, features)
		}
	default:
		if !json.Valid(body) {
			return fmt.Errorf("GET %s: invalid JSON", stage)
		}
	}
	return nil
}

// editSample is one completed edit request.
type editSample struct {
	latency, queue, solve time.Duration
}

// loadResult is what the two closed-loop connections measured.
type loadResult struct {
	edits   []editSample
	reads   []time.Duration
	readB   []float64
	elapsed time.Duration
	errs    []error // one entry per attempted request; nil when it passed
}

// runLoad drives one writer and one reader against session id for dur. The
// writer stops only after an even number of edits, so the served layout
// ends equal to the generated one.
func runLoad(ctx context.Context, base, id string, script *editScript, features int, dur time.Duration) *loadResult {
	var (
		wg      sync.WaitGroup
		wErrs   []error
		rErrs   []error
		res     = &loadResult{}
		start   = time.Now()
		editURL = "/v1/sessions/" + id + "/edits?detect=1"
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := newClient(base)
		defer c.close()
		for k := 0; time.Since(start) < dur || k%2 == 1; k++ {
			st := script.step(k)
			body := fmt.Sprintf(`{"ops":[{"op":"move","index":%d,"rect":[%d,%d,%d,%d]}]}`,
				st.index, st.rect.X0, st.rect.Y0, st.rect.X1, st.rect.Y1)
			status, data, d, err := c.do(ctx, http.MethodPost, editURL, []byte(body))
			var w editWire
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("POST edits: status %d: %s", status, bytes.TrimSpace(data))
			}
			if err == nil {
				err = json.Unmarshal(data, &w)
			}
			if err == nil {
				switch {
				case w.Applied != 1 || w.Features != features:
					err = fmt.Errorf("edit applied %d ops to %d features, want 1 and %d", w.Applied, w.Features, features)
				case w.Incremental.FallbackDirty != 0:
					err = fmt.Errorf("edit response fallback_dirty = %d, want 0", w.Incremental.FallbackDirty)
				case w.Batch == nil:
					err = errors.New("edit response has no batch receipt")
				case w.Detect == nil || w.DetectError != "":
					err = fmt.Errorf("edit response has no detection (%s)", w.DetectError)
				case w.Detect.Features != features:
					err = fmt.Errorf("edit detection covers %d features, want %d", w.Detect.Features, features)
				}
			}
			wErrs = append(wErrs, err)
			if err != nil {
				continue
			}
			res.edits = append(res.edits, editSample{
				latency: d,
				queue:   time.Duration(w.Batch.QueueNS),
				solve:   time.Duration(w.Batch.SolveNS),
			})
		}
	}()
	go func() {
		defer wg.Done()
		c := newClient(base)
		defer c.close()
		for j := 0; time.Since(start) < dur; j++ {
			stage := stages[j%len(stages)]
			status, data, d, err := c.do(ctx, http.MethodGet, "/v1/sessions/"+id+"/"+stage, nil)
			if err == nil {
				err = checkRead(stage, status, data, features)
			}
			rErrs = append(rErrs, err)
			if err == nil {
				res.reads = append(res.reads, d)
				res.readB = append(res.readB, float64(len(data)))
			}
		}
	}()
	wg.Wait()
	res.elapsed = time.Since(start)
	res.errs = append(wErrs, rErrs...)
	return res
}

// createSession uploads the layout and reads every stage once.
func createSession(ctx context.Context, c *client, in *editInput) (string, error) {
	status, data, _, err := c.do(ctx, http.MethodPost, "/v1/sessions?format=gds", in.gds)
	if err != nil {
		return "", err
	}
	if status != http.StatusOK {
		return "", fmt.Errorf("POST /v1/sessions: status %d: %s", status, bytes.TrimSpace(data))
	}
	var created struct {
		ID       string `json:"id"`
		Features int    `json:"features"`
	}
	if err := json.Unmarshal(data, &created); err != nil {
		return "", err
	}
	if created.Features != len(in.layout.Features) {
		return "", fmt.Errorf("session has %d features, want %d", created.Features, len(in.layout.Features))
	}
	for _, stage := range []string{"detect", "assign", "correct", "mask", "drc"} {
		status, data, _, err := c.do(ctx, http.MethodGet, "/v1/sessions/"+created.ID+"/"+stage, nil)
		if err == nil {
			err = checkRead(stage, status, data, created.Features)
		}
		if err != nil {
			return "", err
		}
	}
	return created.ID, nil
}

// verifyFinal checks the served session after the load against a
// from-scratch, non-incremental Session on the served final layout, and
// returns the served conflict count and area increase.
func verifyFinal(ctx context.Context, c *client, id string, in *editInput) (conflicts int, area float64, err error) {
	get := func(stage string) (int, []byte, error) {
		status, data, _, err := c.do(ctx, http.MethodGet, "/v1/sessions/"+id+"/"+stage, nil)
		return status, data, err
	}
	status, text, err := get("layout")
	if err != nil || status != http.StatusOK {
		return 0, 0, fmt.Errorf("GET layout: status %d: %v", status, err)
	}
	if !bytes.Equal(text, in.text) {
		return 0, 0, errors.New("served final layout differs from the edit script's final layout")
	}
	final, err := aapsm.ReadLayoutText(bytes.NewReader(text))
	if err != nil {
		return 0, 0, err
	}
	scratch := daemonEngine().NewSessionWithParallelism(final, 1)
	res, err := scratch.Detect(ctx)
	if err != nil {
		return 0, 0, err
	}

	status, data, err := get("detect")
	if err != nil || status != http.StatusOK {
		return 0, 0, fmt.Errorf("GET detect: status %d: %v", status, err)
	}
	var served detectWire
	if err := json.Unmarshal(data, &served); err != nil {
		return 0, 0, err
	}
	want := detectWire{Features: len(final.Features), Assignable: res.Assignable()}
	for _, c := range res.Conflicts() {
		w := conflictWire{Edge: c.Edge, Kind: "overlap", Shifters: [2]int{c.Meta.S1, c.Meta.S2}, Feature: -1, Deficit: c.Deficit}
		if c.Meta.Kind == core.FeatureEdge {
			w.Kind, w.Feature = "feature", c.Meta.Feature
		}
		want.Conflicts = append(want.Conflicts, w)
	}
	if fmt.Sprint(served) != fmt.Sprint(want) {
		return 0, 0, errors.New("served final detection differs from a from-scratch session")
	}

	status, data, err = get("mask")
	if err != nil {
		return 0, 0, err
	}
	m, merr := scratch.Mask(ctx)
	switch {
	case merr != nil && errors.Is(merr, aapsm.ErrMaskInconsistent):
		if checkRead("mask", status, data, 0) != nil || status != http.StatusConflict {
			return 0, 0, errors.New("served final mask is not inconsistent like the from-scratch one")
		}
	case merr != nil:
		return 0, 0, merr
	default:
		var buf bytes.Buffer
		if err := aapsm.WriteLayoutText(&buf, m); err != nil {
			return 0, 0, err
		}
		if status != http.StatusOK || !bytes.Equal(data, buf.Bytes()) {
			return 0, 0, errors.New("served final mask differs from a from-scratch session")
		}
	}

	status, data, err = get("correct")
	if err != nil || status != http.StatusOK {
		return 0, 0, fmt.Errorf("GET correct: status %d: %v", status, err)
	}
	var cor correctWire
	if err := json.Unmarshal(data, &cor); err != nil {
		return 0, 0, err
	}
	return len(served.Conflicts), cor.AreaIncrease, nil
}

// scrapeCounters reads the unlabeled counters named in names from /metrics.
func scrapeCounters(ctx context.Context, c *client, names ...string) (map[string]float64, error) {
	status, data, _, err := c.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	out := make(map[string]float64, len(names))
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		for _, n := range names {
			if f[0] == n {
				v, err := strconv.ParseFloat(f[1], 64)
				if err != nil {
					return nil, fmt.Errorf("metric %s: %w", n, err)
				}
				out[n] = v
			}
		}
	}
	for _, n := range names {
		if _, ok := out[n]; !ok {
			return nil, fmt.Errorf("/metrics has no %s", n)
		}
	}
	return out, nil
}

// Counters the traced run reads around the load.
const (
	mBatches = "aapsmd_edit_batches_total"
	mItems   = "aapsmd_edit_batch_items_total"
	mReads   = "aapsmd_reads_coalesced_total"
)

// editWorkload drives edit_session.
func editWorkload(ctx context.Context, cfg runConfig, in, canon *editInput, rep *report) error {
	features := len(in.layout.Features)
	rep.env["polygons"] = features
	rep.env["connections"] = 2

	// Set-up: a fresh daemon's session upload plus the first read of every
	// stage. The last daemon serves the timed load.
	var (
		setup []float64
		d     *daemon
		id    string
	)
	for k := 0; k < setupReps; k++ {
		if d != nil {
			d.stop()
		}
		var err error
		if d, err = startDaemon(); err != nil {
			return err
		}
		c := newClient(d.base)
		t0 := time.Now()
		id, err = createSession(ctx, c, in)
		setup = append(setup, sec(time.Since(t0)))
		c.close()
		rep.op(err)
		if err != nil {
			d.stop()
			return err
		}
	}
	defer d.stop()
	rep.setup(setup)

	probe := newClient(d.base)
	defer probe.close()
	var before map[string]float64
	if cfg.trace {
		var err error
		if before, err = scrapeCounters(ctx, probe, mBatches, mItems, mReads); err != nil {
			return err
		}
	}
	script := newEditScript(cfg.seed, in.layout)
	load := runLoad(ctx, d.base, id, script, features, cfg.dur)
	for _, err := range load.errs {
		rep.op(err)
	}
	runtime.GC() // keep the check's heap off the load's peak RSS
	conflicts, area, err := verifyFinal(ctx, probe, id, in)
	rep.op(err)

	if !cfg.trace {
		rep.edits(load)
		rep.linef("seeded input: %d conflicts, %.4f %% area increase (served)", conflicts, area)
		q, err := sessionFlow(ctx, daemonEngine(), canon.gds, gds.ReadOptions{})
		rep.op(err)
		if err != nil {
			return err
		}
		rep.quality(len(q.res.Conflicts()), q.cor.Stats.AreaIncrease)
		return nil
	}
	after, err := scrapeCounters(ctx, probe, mBatches, mItems, mReads)
	if err != nil {
		return err
	}
	rep.serverLayers(load, before, after)
	if err := replaySession(ctx, in, script, len(load.edits), rep); err != nil {
		return err
	}
	// The scratch build the daemon runs at session creation, layer by layer.
	flowIn := &flowInput{gds: in.gds, polygons: features}
	ref, err := buildReference(ctx, flowIn)
	if err != nil {
		return err
	}
	_, err = traceFlows(ctx, 0, daemonEngine(), 1, flowIn, ref, rep)
	return err
}

// maxReplay caps the edits replayed on the in-process session.
const maxReplay = 100

// replaySession replays the first edits of the script on an in-process,
// edit-armed Session and times each call.
func replaySession(ctx context.Context, in *editInput, script *editScript, edits int, rep *report) error {
	edits = min(edits, maxReplay) &^ 1
	s := daemonEngine().NewSessionWithParallelism(in.layout.Clone(), 1)
	if err := s.EnableEdits(); err != nil {
		return err
	}
	// times[0] holds the edit calls, times[1:] the stage calls after each.
	var times, warm [6][]float64
	stages := func(times *[6][]float64) error {
		calls := []func() error{
			func() error { _, err := s.Detect(ctx); return err },
			func() error { _, err := s.Assignment(ctx); return err },
			func() error { _, err := s.Correction(ctx); return err },
			func() error {
				if _, err := s.Mask(ctx); err != nil && !errors.Is(err, aapsm.ErrMaskInconsistent) {
					return err
				}
				return nil
			},
			func() error { s.DRC(); return nil },
		}
		for i, call := range calls {
			t := time.Now()
			if err := call(); err != nil {
				return err
			}
			times[i+1] = append(times[i+1], ms(time.Since(t)))
		}
		return nil
	}
	if err := stages(&warm); err != nil {
		return err
	}
	base := s.Stats().Incremental
	for k := 0; k < edits; k++ {
		st := script.step(k)
		t := time.Now()
		err := s.Edit(func(ed *aapsm.LayoutEditor) { ed.Move(st.index, st.rect) })
		times[0] = append(times[0], ms(time.Since(t)))
		if err == nil {
			err = stages(&times)
		}
		rep.op(err)
		if err != nil {
			return err
		}
	}
	inc := s.Stats().Incremental
	if inc.FallbackDirty != 0 {
		return fmt.Errorf("replayed session fallback_dirty = %d, want 0", inc.FallbackDirty)
	}
	names := []string{"edit", "detect", "assign", "correct", "mask", "drc"}
	for i, n := range names {
		rep.perLayer["session."+n+"_ms"] = median(times[i])
	}
	reused := float64(inc.ShardsReused - base.ShardsReused)
	solved := float64(inc.ShardsSolved - base.ShardsSolved)
	rep.perLayer["session.shards_reused"] = reused
	rep.perLayer["session.shards_solved"] = solved
	rep.perLayer["session.shard_reuse_ratio"] = ratio(reused, reused+solved)
	return nil
}
