package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"testing"
)

// FuzzAssignRequest posts arbitrary bodies to /v1/assign on an idle server.
// Every response must be well-formed JSON — labels, one per point, or a
// typed error body — and no response may be a 5xx other than 504. A body
// that decodes to a request with valid points and a timeout_ms of 0 or at
// least 1000 must get 200.
func FuzzAssignRequest(f *testing.F) {
	m, ds := trainedModel(f, 800, 2, 2, 13)
	_, url, client := newTestServer(f, Config{}, m)
	p := ds.Point(0)
	for _, body := range []string{
		`{"point":[` + jsonFloat(p[0]) + `,` + jsonFloat(p[1]) + `]}`,
		`{"point":[1,2],"timeout_ms":10000000000000}`,
		`{"point":[1,2],"timeout_ms":9223372036854775807}`,
		`{"points":[[1,2],[3,4]],"model":"m","timeout_ms":1000}`,
		`{"points":[[1,2],[3]]}`,
		`{"point":[1,2],"points":[[1,2]]}`,
		`{"model":"x","point":[1,2]}`,
		`{"point":[1,2],"extra":1}`,
		`[1,2]`,
		`{"point":`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		resp, err := client.Post(url+"/v1/assign", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("read body: %v", err)
		}
		if resp.StatusCode >= 500 && resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("status %d for body %q: %s", resp.StatusCode, body, out)
		}
		rows, valid := validAssign(body, ds.Dim())
		if resp.StatusCode == http.StatusOK {
			var ar assignResponse
			if err := json.Unmarshal(out, &ar); err != nil {
				t.Fatalf("200 body %q is not an assign response: %v", out, err)
			}
			if len(ar.Labels) != rows {
				t.Fatalf("%d labels for %d points (body %q)", len(ar.Labels), rows, body)
			}
			return
		}
		var eb errorBody
		if err := json.Unmarshal(out, &eb); err != nil || eb.Error.Code == "" {
			t.Fatalf("status %d body %q is not a typed error (%v)", resp.StatusCode, out, err)
		}
		if valid {
			t.Fatalf("valid request %q got status %d: %s", body, resp.StatusCode, out)
		}
	})
}

// validAssign decodes body the way the handler does and returns the number
// of points it carries, and whether the request must succeed: exactly one
// of point and points set, one to 4096 rows of dimension dim with
// coordinates well inside both storage precisions' range, the default or
// loaded model, and a timeout_ms of 0 or at least 1000.
func validAssign(body []byte, dim int) (int, bool) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req assignRequest
	if dec.Decode(&req) != nil {
		return 0, false
	}
	rows := req.Points
	if req.Point != nil {
		rows = [][]float64{req.Point}
	}
	ok := (req.Point == nil) != (req.Points == nil) && len(rows) > 0 && len(rows) <= 4096 &&
		(req.Model == "" || req.Model == "m") && (req.TimeoutMs == 0 || req.TimeoutMs >= 1000)
	for _, r := range rows {
		if len(r) != dim {
			ok = false
		}
		for _, v := range r {
			if math.Abs(v) > 1e30 {
				ok = false
			}
		}
	}
	return len(rows), ok
}

// jsonFloat renders v as a JSON number.
func jsonFloat(v float64) string {
	b, _ := json.Marshal(v)
	return string(b)
}
