package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"dbsvec"
	"dbsvec/internal/cluster"
	"dbsvec/internal/data"
	"dbsvec/internal/eval"
	"dbsvec/internal/server"
	"dbsvec/internal/vec"
)

// serveSpec sizes the serve workload: the model it trains at set-up and the
// open-loop traffic it sends.
type serveSpec struct {
	TrainN, D int
	Eps       float64
	MinPts    int
	// Queries is the size of the held-out query pool.
	Queries int
	// Ladder holds the single-point request rates (req/s), ascending; each
	// is a step of the run. DesignRate must be one of them.
	Ladder     []float64
	DesignRate float64
	// DesignShare is the share of the run (after warm-up) spent at the
	// design rate; the other steps split the rest.
	DesignShare float64
	Warmup      time.Duration
	BatchSize   int
	BatchEvery  time.Duration
	SwapEvery   time.Duration
	// Limit is the point p99 latency a ladder step must meet to count
	// towards max_rate_rps.
	Limit time.Duration
	// Duration, when set, overrides the run's --seconds (the short serve
	// pass of the traced cluster runs).
	Duration time.Duration
	// SetupReps is the number of set-up samples taken before the load, and
	// again after it.
	SetupReps int
	// Conns caps the client's connections to the server.
	Conns int
}

// serveDefault is the serve workload. The design rate is the lowest ladder
// step: at 4000 req/s requests queue for the two connections and the p50
// varied by 15% across seeds, at 2000 req/s by 8%. A batch comes every
// 100 ms so that the design step puts more than ten batches beyond their p90.
func serveDefault() serveSpec {
	return serveSpec{TrainN: 100000, D: 8, Eps: 5000, MinPts: 100, Queries: 8192,
		Ladder: []float64{2000, 4000, 6000, 8000}, DesignRate: 2000, DesignShare: 0.6,
		Warmup: 500 * time.Millisecond, BatchSize: 256, BatchEvery: 100 * time.Millisecond,
		SwapEvery: time.Second, Limit: 10 * time.Millisecond, SetupReps: 6, Conns: 2}
}

// serveShort is the single-step load the traced cluster runs put on the
// model of their first dataset, so that the serving layers report on every
// workload. That model describes ε=2000 clusters with about 14k support
// vectors and costs about 0.25 ms a point, so the rate is far below the
// serve workload's; 4.5 s at 250 req/s leaves ten samples beyond the
// handler p99.
func serveShort() serveSpec {
	s := serveDefault()
	s.Queries = 2048
	s.Ladder = []float64{250}
	s.DesignRate = 250
	s.DesignShare = 1
	s.BatchEvery = 1600 * time.Millisecond
	s.Duration = 5 * time.Second
	s.SetupReps = 3
	return s
}

const (
	kindSingle = iota
	kindBatch
	kindSwap
)

// request is one scheduled request of the open loop and what became of it.
// Times are offsets from the start of the load.
type request struct {
	kind   int
	step   int // ladder step, -1 during warm-up
	item   int // pool point (single) or batch window (batch)
	due    time.Duration
	sent   time.Duration
	done   time.Duration
	status int
	err    error
	body   []byte

	// Traced runs only: the server handler's span.
	handlerStart time.Time
	handler      time.Duration
	spanID       int64
}

func (r *request) latency() time.Duration { return r.done - r.due }

type step struct {
	rate     float64
	from, to time.Duration
}

// schedule lays out the open loop: singles at each step's rate, a batch
// every BatchEvery and a model swap every SwapEvery, sorted by due time.
func (s serveSpec) schedule(total time.Duration, pool, windows int) ([]request, []step, int) {
	var steps []step
	design := slices.Index(s.Ladder, s.DesignRate)
	rest := total - s.Warmup
	designLen := time.Duration(float64(rest) * s.DesignShare)
	otherLen := time.Duration(0)
	if len(s.Ladder) > 1 {
		otherLen = (rest - designLen) / time.Duration(len(s.Ladder)-1)
	}
	at := s.Warmup
	for i, rate := range s.Ladder {
		d := otherLen
		if i == design {
			d = designLen
		}
		steps = append(steps, step{rate: rate, from: at, to: at + d})
		at += d
	}
	stepOf := func(t time.Duration) int {
		for i, st := range steps {
			if t >= st.from && t < st.to {
				return i
			}
		}
		return -1
	}
	var reqs []request
	item := 0
	singles := func(rate float64, from, to time.Duration, stepIdx int) {
		gap := time.Duration(float64(time.Second) / rate)
		for t := from; t < to; t += gap {
			reqs = append(reqs, request{kind: kindSingle, step: stepIdx, item: item % pool, due: t})
			item++
		}
	}
	singles(s.DesignRate, 0, s.Warmup, -1)
	for i, st := range steps {
		singles(st.rate, st.from, st.to, i)
	}
	for k, t := 0, time.Duration(0); t < at; k, t = k+1, t+s.BatchEvery {
		reqs = append(reqs, request{kind: kindBatch, step: stepOf(t), item: k % windows, due: t})
	}
	for t := s.Warmup; t < at; t += s.SwapEvery {
		reqs = append(reqs, request{kind: kindSwap, step: stepOf(t), due: t})
	}
	slices.SortStableFunc(reqs, func(a, b request) int { return int(a.due - b.due) })
	return reqs, steps, design
}

// handlerLog records the server handler's span per request, keyed by the
// request number the client sends in reqHeader.
type handlerLog struct {
	mu    sync.Mutex
	start []time.Time
	dur   []time.Duration
}

const reqHeader = "X-Perfbench-Req"

func (l *handlerLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(start)
		id, err := strconv.Atoi(r.Header.Get(reqHeader))
		l.mu.Lock()
		defer l.mu.Unlock()
		if err == nil && id >= 0 && id < len(l.dur) {
			l.start[id], l.dur[id] = start, d
		}
	})
}

// harness is a server.Server behind a loopback listener, with the client
// that drives it.
type harness struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	client *http.Client
	base   string
}

// startHarness is the serve set-up a user pays: load the model, install it,
// listen, and wait for the first 200 from /readyz. It returns the harness
// and the time LoadModel took.
func startHarness(modelBytes []byte, conns int, log *handlerLog) (*harness, time.Duration, error) {
	start := time.Now()
	m, err := dbsvec.LoadModel(bytes.NewReader(modelBytes))
	if err != nil {
		return nil, 0, fmt.Errorf("load model: %w", err)
	}
	load := time.Since(start)
	srv := server.New(server.Config{})
	srv.SetModel("m", m)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, fmt.Errorf("listen: %w", err)
	}
	var handler http.Handler = srv.Handler()
	if log != nil {
		handler = log.wrap(handler)
	}
	h := &harness{
		srv:    srv,
		hs:     &http.Server{Handler: handler},
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns,
			DisableCompression: true}},
		base: "http://" + ln.Addr().String(),
	}
	go func() { h.served <- h.hs.Serve(ln) }()
	for {
		resp, err := h.client.Get(h.base + "/readyz")
		if err != nil {
			h.close()
			return nil, 0, fmt.Errorf("readyz: %w", err)
		}
		_, _ = io.Copy(io.Discard, resp.Body) // drained only so the connection is reused
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return h, load, nil
		}
		time.Sleep(time.Millisecond)
	}
}

// close shuts the server down, waiting for every handler to return.
func (h *harness) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	if serveErr := <-h.served; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	h.client.CloseIdleConnections()
	return err
}

// scrape reads the server's /metrics counters in process, without using one
// of the client's connections.
func (h *harness) scrape() map[string]float64 {
	rec := httptest.NewRecorder()
	h.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := map[string]float64{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		if name, v, ok := strings.Cut(sc.Text(), " "); ok {
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				out[strings.TrimPrefix(name, "dbsvecd_")] = f
			}
		}
	}
	return out
}

// send issues one request and records its outcome.
func (h *harness) send(r *request, id int, body []byte, t0 time.Time, traced bool) {
	r.sent = time.Since(t0)
	method, path := http.MethodPost, "/v1/assign"
	if r.kind == kindSwap {
		method, path = http.MethodPut, "/v1/models/m"
	}
	req, err := http.NewRequest(method, h.base+path, bytes.NewReader(body))
	if err != nil {
		r.err = err
		r.done = time.Since(t0)
		return
	}
	if traced {
		req.Header.Set(reqHeader, strconv.Itoa(id))
	}
	resp, err := h.client.Do(req)
	if err == nil {
		r.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		r.status = resp.StatusCode
	}
	r.err = err
	r.done = time.Since(t0)
}

// drive runs the open loop: each request starts in its own goroutine at its
// due time (or as soon after as the generator gets to it), and the client's
// connection cap queues whatever the server is not yet taking.
func (h *harness) drive(reqs []request, bodyOf func(*request) []byte, traced bool) time.Time {
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range reqs {
		r := &reqs[i]
		if d := r.due - time.Since(t0); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h.send(r, i, bodyOf(r), t0, traced)
		}(i)
	}
	wg.Wait()
	return t0
}

type assignReply struct {
	Labels   []int32 `json:"labels"`
	Degraded bool    `json:"degraded"`
}

// expected holds the labels a direct call on the model gives each pool
// point, on the normal and on the degraded path.
type expected struct{ assign, nearest []int32 }

// check validates one response: status 200, and for assigns the labels a
// direct Model call gives the same points. It returns the served labels.
func (e expected) check(r *request, batchSize, pool int) ([]int32, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	if r.kind == kindSwap {
		return nil, nil
	}
	var rep assignReply
	if err := json.Unmarshal(r.body, &rep); err != nil {
		return nil, fmt.Errorf("decode assign reply: %w", err)
	}
	want := e.assign
	if rep.Degraded {
		want = e.nearest
	}
	lo, n := r.item, 1
	if r.kind == kindBatch {
		lo, n = r.item*batchSize, batchSize
	}
	if lo+n > pool || !slices.Equal(rep.Labels, want[lo:lo+n]) {
		return nil, fmt.Errorf("served labels for points [%d,%d) differ from a direct assign (degraded=%v)", lo, lo+n, rep.Degraded)
	}
	return rep.Labels, nil
}

// pointRows returns the rows of pool points [lo, lo+n).
func pointRows(q *dbsvec.Dataset, lo, n int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = q.Point(lo + i)
	}
	return rows
}

// serveRun is one set-up plus open-loop load against a model, with its
// checks. Metrics go to its own report so that callers pick the ones that
// describe their workload.
func serveRun(cfg runConfig, s serveSpec, modelBytes []byte, queries *dbsvec.Dataset) (*report, error) {
	rep := newReport()
	ctx := context.Background()
	direct, err := dbsvec.LoadModel(bytes.NewReader(modelBytes))
	if err != nil {
		return nil, fmt.Errorf("load model: %w", err)
	}
	var exp expected
	if exp.assign, err = direct.AssignContext(ctx, queries, 0); err != nil {
		return nil, err
	}
	if exp.nearest, err = direct.AssignNearestContext(ctx, queries, 0); err != nil {
		return nil, err
	}
	pool := queries.Len()
	windows := pool / s.BatchSize
	singleBodies := make([][]byte, pool)
	for i := range singleBodies {
		singleBodies[i], _ = json.Marshal(map[string][]float64{"point": queries.Point(i)})
	}
	batchBodies := make([][]byte, windows)
	for k := range batchBodies {
		batchBodies[k], _ = json.Marshal(map[string][][]float64{"points": pointRows(queries, k*s.BatchSize, s.BatchSize)})
	}
	total := cfg.duration
	if s.Duration > 0 {
		total = s.Duration
	}
	reqs, steps, design := s.schedule(total, pool, windows)

	var log *handlerLog
	if cfg.trace {
		log = &handlerLog{start: make([]time.Time, len(reqs)), dur: make([]time.Duration, len(reqs))}
	}
	// Set-up is sampled SetupReps times before the load and SetupReps times
	// after it, so that the median covers the machine over the whole run;
	// the last server started before the load serves it.
	var setups, loads []float64
	setUp := func(log *handlerLog) (*harness, error) {
		start := time.Now()
		h, load, err := startHarness(modelBytes, s.Conns, log)
		if err != nil {
			return nil, err
		}
		setups, loads = append(setups, seconds(time.Since(start))), append(loads, millis(load))
		return h, nil
	}
	var h *harness
	for i := 0; i < s.SetupReps; i++ {
		if h != nil {
			if err := h.close(); err != nil {
				return nil, fmt.Errorf("stop server: %w", err)
			}
		}
		if h, err = setUp(log); err != nil {
			return nil, err
		}
	}
	rep.set("data.model_bytes", float64(len(modelBytes)), "bytes")
	rep.set("model.support_vectors", float64(direct.SupportVectors()), "count")

	bodyOf := func(r *request) []byte {
		switch r.kind {
		case kindSingle:
			return singleBodies[r.item]
		case kindBatch:
			return batchBodies[r.item]
		}
		return modelBytes
	}
	queueMax := 0.0
	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	if cfg.trace {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			t := time.NewTicker(50 * time.Millisecond)
			defer t.Stop()
			for {
				queueMax = max(queueMax, h.scrape()["admission_queue_depth"])
				select {
				case <-stopPoll:
					return
				case <-t.C:
				}
			}
		}()
	}
	heap, gc := startHeapSampler(), startGC()
	t0 := h.drive(reqs, bodyOf, cfg.trace)
	heap.Stop()
	cycles, pause := gc.Stop()
	close(stopPoll)
	pollWG.Wait()
	counters := h.scrape()
	if err := h.close(); err != nil {
		return nil, fmt.Errorf("stop server: %w", err)
	}
	for i := 0; i < s.SetupReps; i++ {
		hi, err := setUp(nil)
		if err != nil {
			return nil, err
		}
		if err := hi.close(); err != nil {
			return nil, fmt.Errorf("stop server: %w", err)
		}
	}
	rep.set("setup_s", median(setups), "s")
	rep.set("data.load_model_ms", median(loads), "ms")

	var served, want []int32
	for i := range reqs {
		r := &reqs[i]
		labels, err := exp.check(r, s.BatchSize, pool)
		rep.op(err)
		if err == nil && r.kind != kindSwap {
			lo := r.item
			if r.kind == kindBatch {
				lo *= s.BatchSize
			}
			served = append(served, labels...)
			want = append(want, exp.assign[lo:lo+len(labels)]...)
		}
	}
	ari := 0.0
	if len(served) > 0 {
		ari, err = eval.AdjustedRandIndex(&cluster.Result{Labels: want}, &cluster.Result{Labels: served})
		if err != nil {
			return nil, err
		}
	}
	rep.set("ari", ari, "1")

	// Latencies per step, timed from each request's due time.
	lat := func(kind, stepIdx int) []float64 {
		var xs []float64
		for i := range reqs {
			if r := &reqs[i]; r.kind == kind && r.step == stepIdx {
				xs = append(xs, millis(r.latency()))
			}
		}
		return xs
	}
	maxRate := 0.0
	for i, st := range steps {
		xs := lat(kindSingle, i)
		p99 := quantile(xs, 0.99)
		ok := supports(len(xs), 0.99) && p99 <= millis(s.Limit) && stepErrors(reqs, i) <= 0.001 && !backlogGrew(reqs, i, s.Limit)
		if ok {
			maxRate = max(maxRate, st.rate)
		}
		prefix := fmt.Sprintf("step_%g_rps.", st.rate)
		rep.set(prefix+"p50_ms", quantile(xs, 0.5), "ms")
		rep.set(prefix+"p99_ms", p99, "ms")
		rep.set(prefix+"meets_limit", boolValue(ok), "bool")
	}
	points := lat(kindSingle, design)
	batches := lat(kindBatch, design)
	rep.set("point_p50_ms", quantile(points, 0.5), "ms")
	rep.set("op_p50_ms", quantile(points, 0.5), "ms")
	if supports(len(points), 0.99) {
		rep.set("point_p99_ms", quantile(points, 0.99), "ms")
	}
	rep.set("point_samples", float64(len(points)), "count")
	rep.set("batch_p50_ms", quantile(batches, 0.5), "ms")
	if supports(len(batches), 0.9) {
		rep.set("batch_p90_ms", quantile(batches, 0.9), "ms")
	}
	rep.set("batch_samples", float64(len(batches)), "count")
	var swaps []float64
	for i := range reqs {
		if reqs[i].kind == kindSwap {
			swaps = append(swaps, millis(reqs[i].latency()))
		}
	}
	rep.set("swap_ms", median(swaps), "ms")
	rep.set("max_rate_rps", maxRate, "req/s")
	rep.set("peak_heap_mb", heap.PeakWithin(t0.Add(steps[design].from), t0.Add(steps[design].to)), "MB")
	rep.set("error_rate", rep.errorRate(), "fraction")

	lags := make([]float64, len(reqs))
	for i := range reqs {
		lags[i] = millis(reqs[i].sent - reqs[i].due)
	}
	rep.set("loadgen.sent", float64(len(reqs)), "count")
	rep.set("loadgen.lag_p50_ms", quantile(lags, 0.5), "ms")
	rep.set("loadgen.lag_p99_ms", quantile(lags, 0.99), "ms")
	rep.set("runtime.gc_cycles", cycles, "count")
	rep.set("runtime.gc_pause_ms", pause, "ms")
	rep.set("server.queue_depth_max", queueMax, "count")
	rep.set("server.shed_total", counters["rejected_overload_total"]+counters["rejected_too_large_total"], "count")
	rep.set("server.deadline_total", counters["deadline_exceeded_total"], "count")
	rep.set("server.degraded_total", counters["assign_degraded_total"], "count")
	if cfg.trace {
		if err := traceServe(cfg, s, reqs, log, t0, design, modelBytes, queries, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func boolValue(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// stepErrors is the share of a step's requests that did not return 200.
func stepErrors(reqs []request, stepIdx int) float64 {
	n, bad := 0, 0
	for i := range reqs {
		if reqs[i].step == stepIdx {
			n++
			if reqs[i].err != nil || reqs[i].status != http.StatusOK {
				bad++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(bad) / float64(n)
}

// backlogGrew reports a backlog that grew through a step: the median
// latency of the step's last tenth of singles is above the limit.
func backlogGrew(reqs []request, stepIdx int, limit time.Duration) bool {
	var xs []float64
	for i := range reqs {
		if reqs[i].kind == kindSingle && reqs[i].step == stepIdx {
			xs = append(xs, millis(reqs[i].latency()))
		}
	}
	if len(xs) == 0 {
		return false
	}
	tail := xs[len(xs)-max(len(xs)/10, 1):]
	return median(tail) > millis(limit)
}

// traceServe derives the serving layers' metrics of a traced run: the
// handler spans the wrapper recorded, the served batches replayed through
// Model.AssignContext, and the assign plan's build time.
func traceServe(cfg runConfig, s serveSpec, reqs []request, log *handlerLog, t0 time.Time, design int,
	modelBytes []byte, queries *dbsvec.Dataset, rep *report) error {
	ctx := context.Background()
	m, err := dbsvec.LoadModel(bytes.NewReader(modelBytes))
	if err != nil {
		return fmt.Errorf("load model: %w", err)
	}
	one, err := dbsvec.NewDataset(pointRows(queries, 0, 1))
	if err != nil {
		return err
	}
	plans := make([]float64, 5)
	for i := range plans {
		fresh, err := dbsvec.LoadModel(bytes.NewReader(modelBytes))
		if err != nil {
			return fmt.Errorf("load model: %w", err)
		}
		t := time.Now()
		_, err1 := fresh.AssignContext(ctx, one, 0)
		first := time.Since(t)
		t = time.Now()
		_, err2 := fresh.AssignContext(ctx, one, 0)
		if err := errors.Join(err1, err2); err != nil {
			return err
		}
		plans[i] = millis(first - time.Since(t))
	}
	rep.set("model.plan_build_ms", median(plans), "ms")

	windows := make(map[int]*dbsvec.Dataset)
	var replay time.Duration
	replayed := 0
	var handler, overhead, singleAssign []float64
	log.mu.Lock()
	for i := range reqs {
		reqs[i].handlerStart, reqs[i].handler = log.start[i], log.dur[i]
	}
	log.mu.Unlock()
	for i := range reqs {
		r := &reqs[i]
		r.spanID = cfg.spans.NewID()
		cfg.spans.Add(r.spanID, 0, r.spanID, "http.request", t0.Add(r.sent), r.done-r.sent)
		if r.handler > 0 {
			cfg.spans.Add(0, r.spanID, r.spanID, "server.handler", r.handlerStart, r.handler)
		}
		if r.err != nil || r.status != http.StatusOK {
			continue
		}
		switch {
		case r.kind == kindBatch:
			w := windows[r.item]
			if w == nil {
				if w, err = dbsvec.NewDataset(pointRows(queries, r.item*s.BatchSize, s.BatchSize)); err != nil {
					return err
				}
				windows[r.item] = w
			}
			t := time.Now()
			if _, err := m.AssignContext(ctx, w, 0); err != nil {
				return err
			}
			d := time.Since(t)
			cfg.spans.Add(0, r.spanID, r.spanID, "model.assign", t, d)
			replay += d
			replayed += w.Len()
		case r.kind == kindSingle && r.step == design:
			handler = append(handler, millis(r.handler))
			overhead = append(overhead, millis(r.done-r.sent-r.handler))
			if len(singleAssign) < 2000 {
				pt, err := dbsvec.NewDataset(pointRows(queries, r.item, 1))
				if err != nil {
					return err
				}
				t := time.Now()
				if _, err := m.AssignContext(ctx, pt, 0); err != nil {
					return err
				}
				singleAssign = append(singleAssign, millis(time.Since(t)))
			}
		}
	}
	rep.set("model.assign_us_per_point", float64(replay.Microseconds())/float64(max(replayed, 1)), "us")
	rep.set("server.handler_p50_ms", quantile(handler, 0.5), "ms")
	rep.set("server.handler_p99_ms", quantile(handler, 0.99), "ms")
	rep.set("server.handler_self_ms", quantile(handler, 0.5)-quantile(singleAssign, 0.5), "ms")
	rep.set("http.client_overhead_ms", quantile(overhead, 0.5), "ms")
	return nil
}

// serveLayers serves a model under the short traced load and copies the
// serving layers' metrics into rep.
func serveLayers(cfg runConfig, s serveSpec, modelBytes []byte, queries *dbsvec.Dataset, rep *report) error {
	out, err := serveRun(cfg, s, modelBytes, queries)
	if err != nil {
		return err
	}
	rep.merge(out, "model.", "data.", "server.", "http.", "loadgen.")
	return nil
}

// serveData is the serve workload's input: the training points as core runs
// on them, the held-out query pool, and the model trained on the training
// points.
type serveData struct {
	raw       *vec.Dataset
	queries   *dbsvec.Dataset
	trained   *dbsvec.Result
	trainTook time.Duration
	model     []byte
}

// newServeData generates the serve workload's points from the seed, holds
// out a strided query pool, and trains the model the server will load.
func newServeData(s serveSpec, seed int64) (*serveData, error) {
	all := data.SeedSpreader{N: s.TrainN + s.Queries, D: s.D, Seed: datasetSeed(seed, 63)}.Generate()
	stride := all.Len() / s.Queries
	var trainCoords, queryCoords []float64
	for i := 0; i < all.Len(); i++ {
		if i%stride == stride-1 && len(queryCoords) < s.Queries*s.D {
			queryCoords = append(queryCoords, all.Point(i)...)
		} else {
			trainCoords = append(trainCoords, all.Point(i)...)
		}
	}
	d := &serveData{}
	var err error
	if d.raw, err = vec.NewDataset(trainCoords, s.D); err != nil {
		return nil, err
	}
	if d.queries, err = dbsvec.FromFlat(queryCoords, s.D); err != nil {
		return nil, err
	}
	train, err := dbsvec.FromFlat(trainCoords, s.D)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if d.trained, err = dbsvec.Cluster(train, s.trainSpec().options()); err != nil {
		return nil, fmt.Errorf("train serve model: %w", err)
	}
	d.trainTook = time.Since(start)
	var buf bytes.Buffer
	if err := d.trained.Model().Save(&buf); err != nil {
		return nil, fmt.Errorf("save model: %w", err)
	}
	d.model = buf.Bytes()
	return d, nil
}

// trainSpec describes the model training as a cluster run on the default
// backend.
func (s serveSpec) trainSpec() clusterSpec {
	return clusterSpec{N: s.TrainN, D: s.D, Eps: s.Eps, MinPts: s.MinPts, Index: dbsvec.IndexLinear}
}

func runServe(cfg runConfig, s serveSpec, rep *report) error {
	d, err := newServeData(s, cfg.seed)
	if err != nil {
		return err
	}
	if !cfg.trace {
		out, err := serveRun(cfg, s, d.model, d.queries)
		if err != nil {
			return err
		}
		rep.merge(out)
		return nil
	}
	// The traced run also traces the training, so that the index, svdd and
	// core layers report on the model this workload serves.
	gc := startGC()
	res, st, tr, wall, err := tracedCall(s.trainSpec(), d.raw, cfg.spans)
	if err != nil {
		return fmt.Errorf("traced training: %w", err)
	}
	rep.op(sameRun(res, st, tr, d.trained))
	sums := layerSums{untraced: d.trainTook}
	sums.add(tr, st, wall, s.MinPts, true)
	sums.set(rep)
	if err := serveLayers(cfg, s, d.model, d.queries, rep); err != nil {
		return err
	}
	cycles, pause := gc.Stop()
	rep.set("runtime.gc_cycles", cycles, "count")
	rep.set("runtime.gc_pause_ms", pause, "ms")
	return nil
}
