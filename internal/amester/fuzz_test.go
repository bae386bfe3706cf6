package amester

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
)

// FuzzAPITimeseriesQuery drives /timeseries with arbitrary name= and res=
// values — negative, huge and non-numeric resolutions included. Every
// query must be answered 200, 400 or 404, never a panic or a 5xx, and a
// 200 must carry valid JSON.
func FuzzAPITimeseriesQuery(f *testing.F) {
	f.Add("power_w", "1")
	f.Add("power_w", "")
	f.Add("", "")
	f.Add("power_w", "-1")
	f.Add("power_w", "99999999999999999999")
	f.Add("power_w", "2x")
	f.Add("nope", "0")
	f.Add("power_w\x00&res=0", "+0")
	api, _ := testAPI(f)
	h := api.Handler()
	f.Fuzz(func(t *testing.T, name, res string) {
		q := url.Values{"name": {name}, "res": {res}}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/timeseries?"+q.Encode(), nil))
		switch w.Code {
		case http.StatusOK:
			if !json.Valid(w.Body.Bytes()) {
				t.Fatalf("name=%q res=%q: 200 with invalid JSON:\n%s", name, res, w.Body.String())
			}
		case http.StatusBadRequest, http.StatusNotFound:
		default:
			t.Fatalf("name=%q res=%q: status %d: %s", name, res, w.Code, w.Body.String())
		}
	})
}
