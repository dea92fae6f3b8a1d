package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dbsvec"
	"dbsvec/internal/data"
	"dbsvec/internal/fault"
	"dbsvec/internal/leakcheck"
)

// trainedModel clusters a small blob dataset and returns the retained model
// plus the training points (handy as known-assignable queries).
func trainedModel(t testing.TB, n, d, k int, seed int64) (*dbsvec.Model, *dbsvec.Dataset) {
	t.Helper()
	raw := data.Blobs(n, d, k, 2, 100, 0.05, seed)
	ds, err := dbsvec.FromFlat(append([]float64(nil), raw.Coords()...), d)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dbsvec.Cluster(ds, dbsvec.Options{Eps: 3, MinPts: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Model()
	if m == nil || m.Snapshots() == 0 {
		t.Fatal("training retained no model")
	}
	return m, ds
}

// newTestServer wires a Server with one model under httptest and returns
// the server, the base URL and a client. Cleanup closes everything before
// leakcheck runs.
func newTestServer(t testing.TB, cfg Config, m *dbsvec.Model) (*Server, string, *http.Client) {
	t.Helper()
	s := New(cfg)
	if m != nil {
		s.SetModel("m", m)
	}
	ts := httptest.NewServer(s.Handler())
	client := &http.Client{Timeout: 15 * time.Second}
	t.Cleanup(func() {
		client.CloseIdleConnections()
		ts.Close()
	})
	return s, ts.URL, client
}

func postJSON(t testing.TB, client *http.Client, url string, body any) (int, []byte, http.Header) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, out, resp.Header
}

func decodeAssign(t testing.TB, body []byte) assignResponse {
	t.Helper()
	var ar assignResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatalf("assign response %q: %v", body, err)
	}
	return ar
}

func decodeError(t testing.TB, body []byte) errorInfo {
	t.Helper()
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("error response %q: %v", body, err)
	}
	return eb.Error
}

func checkLabels(t testing.TB, labels []int32, n, clusters int) {
	t.Helper()
	if len(labels) != n {
		t.Fatalf("%d labels for %d points", len(labels), n)
	}
	for i, l := range labels {
		if l != -1 && (l < 0 || int(l) >= clusters) {
			t.Fatalf("label[%d] = %d outside [-1, %d)", i, l, clusters)
		}
	}
}

// TestAssignSingleAndBatch: the happy path — batch labels match the library
// Assign bit-for-bit, the single-point form works, and metrics move.
func TestAssignSingleAndBatch(t *testing.T) {
	m, ds := trainedModel(t, 1200, 2, 3, 5)
	_, url, client := newTestServer(t, Config{}, m)

	points := make([][]float64, 50)
	for i := range points {
		points[i] = append([]float64(nil), ds.Point(i)...)
	}
	want, err := m.Assign(mustDataset(t, points), 1)
	if err != nil {
		t.Fatal(err)
	}

	status, body, _ := postJSON(t, client, url+"/v1/assign", map[string]any{"points": points})
	if status != http.StatusOK {
		t.Fatalf("batch assign: status %d body %s", status, body)
	}
	ar := decodeAssign(t, body)
	if ar.Model != "m" || ar.Clusters != m.Clusters() || ar.Degraded {
		t.Fatalf("response meta drifted: %+v", ar)
	}
	for i := range want {
		if ar.Labels[i] != want[i] {
			t.Fatalf("label[%d] = %d, want %d", i, ar.Labels[i], want[i])
		}
	}

	status, body, _ = postJSON(t, client, url+"/v1/assign", map[string]any{"point": points[0]})
	if status != http.StatusOK {
		t.Fatalf("single assign: status %d body %s", status, body)
	}
	if ar := decodeAssign(t, body); len(ar.Labels) != 1 || ar.Labels[0] != want[0] {
		t.Fatalf("single assign labels %v, want [%d]", ar.Labels, want[0])
	}
}

func constPoints(n, d int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
	}
	return rows
}

func mustDataset(t testing.TB, rows [][]float64) *dbsvec.Dataset {
	t.Helper()
	ds, err := dbsvec.NewDataset(rows)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestAssignValidation: malformed bodies, missing/unknown models, shape
// mismatches and over-capacity batches come back as their typed codes.
func TestAssignValidation(t *testing.T) {
	m, _ := trainedModel(t, 800, 2, 2, 7)
	_, url, client := newTestServer(t, Config{Capacity: 16}, m)

	for _, tc := range []struct {
		name   string
		body   any
		status int
		code   string
	}{
		{"no points", map[string]any{}, 400, CodeInvalidParams},
		{"both forms", map[string]any{"point": []float64{1, 2}, "points": [][]float64{{1, 2}}}, 400, CodeInvalidParams},
		{"wrong dim", map[string]any{"points": [][]float64{{1, 2, 3}}}, 400, CodeInvalidParams},
		{"ragged", map[string]any{"points": [][]float64{{1, 2}, {3}}}, 400, CodeInvalidParams},
		{"unknown model", map[string]any{"model": "nope", "point": []float64{1, 2}}, 404, CodeUnknownModel},
		{"over capacity", map[string]any{"points": constPoints(17, 2)}, 413, CodeBatchTooLarge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, body, _ := postJSON(t, client, url+"/v1/assign", tc.body)
			if status != tc.status {
				t.Fatalf("status %d, want %d (body %s)", status, tc.status, body)
			}
			if ei := decodeError(t, body); ei.Code != tc.code {
				t.Fatalf("code %q, want %q", ei.Code, tc.code)
			}
		})
	}
	// Unparseable JSON.
	resp, err := client.Post(url+"/v1/assign", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("malformed JSON: status %d", resp.StatusCode)
	}
}

// TestBurstAdmission is the load acceptance test: with admission capacity C
// and slow handling, a burst of 4×C concurrent full-cost requests yields
// zero hung connections — every response is a valid assignment, a typed 429
// with Retry-After, or a typed deadline error — and the server emerges
// healthy. leakcheck pins that no request goroutines linger.
func TestBurstAdmission(t *testing.T) {
	leakcheck.Check(t)
	m, ds := trainedModel(t, 1000, 2, 3, 11)
	const capacity = 8
	cfg := Config{
		Capacity:       capacity,
		MaxQueue:       2,
		MaxQueueWait:   100 * time.Millisecond,
		DefaultTimeout: 2 * time.Second,
		Workers:        1,
	}
	_, url, client := newTestServer(t, cfg, m)

	// Slow handling makes every admitted request hold its seat ~50ms, so
	// the burst genuinely contends for admission.
	restore := fault.Activate(fault.NewInjector(1).Arm(fault.HandlerSlow, fault.Always()))
	defer restore()

	batch := make([][]float64, capacity) // full-capacity cost: admissions serialize
	for i := range batch {
		batch[i] = append([]float64(nil), ds.Point(i)...)
	}

	const burst = 4 * capacity
	type outcome struct {
		status int
		body   []byte
		header http.Header
	}
	outcomes := make([]outcome, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, body, header := postJSON(t, client, url+"/v1/assign", map[string]any{"points": batch})
			outcomes[i] = outcome{status, body, header}
		}()
	}
	wg.Wait()

	counts := map[int]int{}
	for i, o := range outcomes {
		counts[o.status]++
		switch o.status {
		case http.StatusOK:
			ar := decodeAssign(t, o.body)
			checkLabels(t, ar.Labels, capacity, m.Clusters())
		case http.StatusTooManyRequests:
			if o.header.Get("Retry-After") == "" {
				t.Errorf("request %d: 429 without Retry-After", i)
			}
			if ei := decodeError(t, o.body); ei.Code != CodeOverloaded {
				t.Errorf("request %d: 429 code %q", i, ei.Code)
			}
		case http.StatusGatewayTimeout:
			if ei := decodeError(t, o.body); ei.Code != CodeDeadlineExceeded {
				t.Errorf("request %d: 504 code %q", i, ei.Code)
			}
		default:
			t.Errorf("request %d: unexpected status %d (body %s)", i, o.status, o.body)
		}
	}
	if counts[http.StatusOK] == 0 {
		t.Error("burst produced no successful assignment")
	}
	if counts[http.StatusTooManyRequests] == 0 {
		t.Error("burst produced no admission shed; overload never engaged")
	}
	t.Logf("burst outcomes: %v", counts)

	// The server must be healthy after the burst.
	restore()
	status, body, _ := postJSON(t, client, url+"/v1/assign", map[string]any{"point": batch[0]})
	if status != http.StatusOK {
		t.Fatalf("post-burst assign: status %d body %s", status, body)
	}
}

// TestDeadlinePropagation: a request deadline shorter than the (injected)
// handler stall comes back as a typed 504 within the timeout's order of
// magnitude — never a hung connection.
func TestDeadlinePropagation(t *testing.T) {
	leakcheck.Check(t)
	m, ds := trainedModel(t, 800, 2, 2, 13)
	_, url, client := newTestServer(t, Config{}, m)

	restore := fault.Activate(fault.NewInjector(1).Arm(fault.HandlerSlow, fault.Always()))
	defer restore()

	start := time.Now()
	status, body, _ := postJSON(t, client, url+"/v1/assign",
		map[string]any{"point": ds.Point(0), "timeout_ms": 10})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline response took %s", elapsed)
	}
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body %s)", status, body)
	}
	if ei := decodeError(t, body); ei.Code != CodeDeadlineExceeded {
		t.Fatalf("code %q, want %q", ei.Code, CodeDeadlineExceeded)
	}
}

// TestAssignTimeoutClampNoOverflow: a timeout_ms too large to convert to a
// Duration clamps to MaxTimeout instead of wrapping to a negative deadline,
// so an idle server answers 200 rather than 504.
func TestAssignTimeoutClampNoOverflow(t *testing.T) {
	m, ds := trainedModel(t, 800, 2, 2, 13)
	_, url, client := newTestServer(t, Config{}, m)
	for _, ms := range []int64{9e12, 1e13, math.MaxInt64 / 1000, math.MaxInt64} {
		status, body, _ := postJSON(t, client, url+"/v1/assign",
			map[string]any{"point": ds.Point(0), "timeout_ms": ms})
		if status != http.StatusOK {
			t.Fatalf("timeout_ms %d: status %d, want 200 (body %s)", ms, status, body)
		}
	}
}

// TestAssignPanicContained: a panic injected inside the assign fan-out is
// contained to a typed 500 worker_panic response and the server keeps
// serving.
func TestAssignPanicContained(t *testing.T) {
	leakcheck.Check(t)
	m, ds := trainedModel(t, 800, 2, 2, 17)
	_, url, client := newTestServer(t, Config{}, m)

	restore := fault.Activate(fault.NewInjector(1).Arm(fault.AssignPanic, fault.Nth(1)))
	status, body, _ := postJSON(t, client, url+"/v1/assign", map[string]any{"point": ds.Point(0)})
	restore()
	if status != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (body %s)", status, body)
	}
	if ei := decodeError(t, body); ei.Code != CodeWorkerPanic {
		t.Fatalf("code %q, want %q", ei.Code, CodeWorkerPanic)
	}

	status, body, _ = postJSON(t, client, url+"/v1/assign", map[string]any{"point": ds.Point(0)})
	if status != http.StatusOK {
		t.Fatalf("post-panic assign: status %d body %s", status, body)
	}
}

// TestGracefulDegradation: sustained shed pressure flips the server into
// degraded mode — responses carry Degraded: true with valid labels — and
// the mode decays away once admissions run immediate again.
func TestGracefulDegradation(t *testing.T) {
	m, ds := trainedModel(t, 1000, 2, 3, 19)
	cfg := Config{Capacity: 64, MaxQueue: 0, DegradeAfter: 2}
	s, url, client := newTestServer(t, cfg, m)

	// Two injected load spikes = two pressured admissions: enters degraded.
	restore := fault.Activate(fault.NewInjector(1).Arm(fault.LoadSpike, fault.Always()))
	for i := 0; i < 2; i++ {
		status, body, _ := postJSON(t, client, url+"/v1/assign", map[string]any{"point": ds.Point(i)})
		if status != http.StatusTooManyRequests {
			t.Fatalf("spike %d: status %d body %s", i, status, body)
		}
	}
	restore()
	if !s.DegradedMode() {
		t.Fatal("two pressured admissions did not engage degraded mode")
	}

	// First clean request: still degraded (score 2 → 1), served on the
	// nearest-SV path with a Degraded marker and valid labels.
	status, body, _ := postJSON(t, client, url+"/v1/assign", map[string]any{"points": [][]float64{ds.Point(0), ds.Point(1)}})
	if status != http.StatusOK {
		t.Fatalf("degraded assign: status %d body %s", status, body)
	}
	ar := decodeAssign(t, body)
	if !ar.Degraded {
		t.Fatal("first post-spike response not marked degraded")
	}
	checkLabels(t, ar.Labels, 2, m.Clusters())

	// Second clean request decays the score to 0: mode exits.
	status, body, _ = postJSON(t, client, url+"/v1/assign", map[string]any{"point": ds.Point(0)})
	if status != http.StatusOK {
		t.Fatalf("recovery assign: status %d body %s", status, body)
	}
	status, body, _ = postJSON(t, client, url+"/v1/assign", map[string]any{"point": ds.Point(0)})
	if status != http.StatusOK {
		t.Fatalf("recovered assign: status %d body %s", status, body)
	}
	if ar := decodeAssign(t, body); ar.Degraded {
		t.Fatal("degraded mode did not decay after immediate admissions")
	}
}

// TestModelEndpointsAndHotSwap: list/inspect/404/delete, hot-swap under
// concurrent assigns (responses always consistent with one of the two
// models), malformed upload rejected without touching the registry.
func TestModelEndpointsAndHotSwap(t *testing.T) {
	leakcheck.Check(t)
	mA, ds := trainedModel(t, 1000, 2, 3, 23)
	mB, _ := trainedModel(t, 900, 2, 2, 29)
	s, url, client := newTestServer(t, Config{}, mA)

	// List + inspect.
	resp, err := client.Get(url + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Models []modelInfo `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Models) != 1 || list.Models[0].Name != "m" || list.Models[0].Clusters != mA.Clusters() {
		t.Fatalf("model list %+v", list.Models)
	}
	resp, err = client.Get(url + "/v1/models/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("inspect unknown: status %d", resp.StatusCode)
	}

	// Hot-swap m → mB while assigns hammer the endpoint: every response is
	// consistent with exactly one of the two models.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				status, body, _ := postJSON(t, client, url+"/v1/assign", map[string]any{"point": ds.Point(0)})
				if status != http.StatusOK {
					errs <- fmt.Sprintf("assign during swap: status %d body %s", status, body)
					return
				}
				ar := decodeAssign(t, body)
				if ar.Clusters != mA.Clusters() && ar.Clusters != mB.Clusters() {
					errs <- fmt.Sprintf("response from a torn model: clusters %d", ar.Clusters)
					return
				}
			}
		}()
	}
	var mbBytes bytes.Buffer
	if err := mB.Save(&mbBytes); err != nil {
		t.Fatal(err)
	}
	putReq, err := http.NewRequest(http.MethodPut, url+"/v1/models/m", bytes.NewReader(mbBytes.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	putResp, err := client.Do(putReq)
	if err != nil {
		t.Fatal(err)
	}
	putResp.Body.Close()
	if putResp.StatusCode != http.StatusOK {
		t.Fatalf("hot-swap PUT: status %d", putResp.StatusCode)
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}

	// Registry now serves mB.
	status, body, _ := postJSON(t, client, url+"/v1/assign", map[string]any{"point": ds.Point(0)})
	if status != http.StatusOK || decodeAssign(t, body).Clusters != mB.Clusters() {
		t.Fatalf("post-swap assign: status %d body %s", status, body)
	}

	// Malformed upload: typed 400, registry untouched.
	putReq, _ = http.NewRequest(http.MethodPut, url+"/v1/models/m", strings.NewReader("not a model"))
	putResp, err = client.Do(putReq)
	if err != nil {
		t.Fatal(err)
	}
	badBody, _ := io.ReadAll(putResp.Body)
	putResp.Body.Close()
	if putResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed upload: status %d", putResp.StatusCode)
	}
	if ei := decodeError(t, badBody); ei.Code != CodeMalformedModel {
		t.Fatalf("malformed upload code %q", ei.Code)
	}
	if got := s.registry().byName["m"]; got == nil || got.Clusters() != mB.Clusters() {
		t.Fatal("failed upload disturbed the registry")
	}

	// Delete → readyz goes unready.
	delReq, _ := http.NewRequest(http.MethodDelete, url+"/v1/models/m", nil)
	delResp, err := client.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", delResp.StatusCode)
	}
	resp, err = client.Get(url + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with no models: status %d", resp.StatusCode)
	}
}

// TestDrainLifecycle: BeginDrain flips readiness, rejects new work with the
// typed draining error, lets the in-flight request finish, and flushes
// queued admissions.
func TestDrainLifecycle(t *testing.T) {
	leakcheck.Check(t)
	m, ds := trainedModel(t, 800, 2, 2, 31)
	s, url, client := newTestServer(t, Config{Capacity: 1, MaxQueue: 4, MaxQueueWait: 5 * time.Second}, m)

	restore := fault.Activate(fault.NewInjector(1).Arm(fault.HandlerSlow, fault.Always()))
	defer restore()

	// One in-flight slow request holding the whole capacity...
	inflight := make(chan outcomePair, 1)
	go func() {
		status, body, _ := postJSON(t, client, url+"/v1/assign", map[string]any{"point": ds.Point(0)})
		inflight <- outcomePair{status, body}
	}()
	// ...and one queued behind it.
	queued := make(chan outcomePair, 1)
	time.Sleep(10 * time.Millisecond)
	go func() {
		status, body, _ := postJSON(t, client, url+"/v1/assign", map[string]any{"point": ds.Point(1)})
		queued <- outcomePair{status, body}
	}()
	time.Sleep(10 * time.Millisecond)

	s.BeginDrain()
	resp, err := client.Get(url + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: status %d", resp.StatusCode)
	}

	// New work is rejected with the typed draining code.
	status, body, _ := postJSON(t, client, url+"/v1/assign", map[string]any{"point": ds.Point(0)})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("assign while draining: status %d body %s", status, body)
	}
	if ei := decodeError(t, body); ei.Code != CodeDraining {
		t.Fatalf("draining code %q", ei.Code)
	}

	// The in-flight request completes; the queued one is flushed with the
	// draining error (it never got a seat).
	in := <-inflight
	if in.status != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d body %s", in.status, in.body)
	}
	q := <-queued
	if q.status != http.StatusServiceUnavailable {
		t.Fatalf("queued request during drain: status %d body %s", q.status, q.body)
	}
}

type outcomePair struct {
	status int
	body   []byte
}

// TestMetricsEndpoint: counters and gauges render and move.
func TestMetricsEndpoint(t *testing.T) {
	m, ds := trainedModel(t, 800, 2, 2, 37)
	_, url, client := newTestServer(t, Config{}, m)
	status, _, _ := postJSON(t, client, url+"/v1/assign", map[string]any{"point": ds.Point(0)})
	if status != http.StatusOK {
		t.Fatal("seed assign failed")
	}
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"dbsvecd_requests_total", "dbsvecd_assign_total 1", "dbsvecd_assign_points_total 1",
		"dbsvecd_admission_capacity", "dbsvecd_models_loaded 1", "dbsvecd_draining 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestResponseErrorTaxonomy: the typed-error satellite for the serving
// layer — classification maps the library taxonomy onto stable codes and
// preserves errors.Is / errors.As through the response wrapping, exactly
// like the library's own layers do.
func TestResponseErrorTaxonomy(t *testing.T) {
	be := &dbsvec.BudgetExceededError{Limit: "duration", Elapsed: time.Second}
	ae := classify(fmt.Errorf("outer: %w", be))
	if ae.code != CodeBudgetExceeded || ae.status != http.StatusServiceUnavailable {
		t.Fatalf("budget classification: %+v", ae)
	}
	var beOut *dbsvec.BudgetExceededError
	if !errors.As(ae, &beOut) || beOut.Limit != "duration" {
		t.Fatal("errors.As lost *BudgetExceededError through the response layer")
	}

	wp := fault.AsWorkerPanic("boom")
	ae = classify(fmt.Errorf("outer: %w", error(wp)))
	if ae.code != CodeWorkerPanic || ae.status != http.StatusInternalServerError {
		t.Fatalf("panic classification: %+v", ae)
	}
	var wpOut *dbsvec.WorkerPanicError
	if !errors.As(ae, &wpOut) || wpOut.Value != "boom" {
		t.Fatal("errors.As lost *WorkerPanicError through the response layer")
	}

	ae = classify(fmt.Errorf("ctx: %w", context.DeadlineExceeded))
	if ae.code != CodeDeadlineExceeded || ae.status != http.StatusGatewayTimeout {
		t.Fatalf("deadline classification: %+v", ae)
	}
	if !errors.Is(ae, context.DeadlineExceeded) {
		t.Fatal("errors.Is lost context.DeadlineExceeded")
	}

	ae = classify(fmt.Errorf("%w: nope", dbsvec.ErrInvalidParams))
	if ae.code != CodeInvalidParams || !errors.Is(ae, dbsvec.ErrInvalidParams) {
		t.Fatalf("invalid-params classification: %+v", ae)
	}

	ae = classify(fmt.Errorf("%w: bad magic", dbsvec.ErrMalformed))
	if ae.code != CodeMalformedModel || !errors.Is(ae, dbsvec.ErrMalformed) {
		t.Fatalf("malformed classification: %+v", ae)
	}

	ae = classify(errors.New("mystery"))
	if ae.code != CodeInternal || ae.status != http.StatusInternalServerError {
		t.Fatalf("residual classification: %+v", ae)
	}
}
