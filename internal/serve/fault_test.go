package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cinderella/internal/bench"
	"cinderella/internal/serve/chaos"
)

// TestFlightGroupPanicSafe is the regression test for the coalescing
// deadlock: a panicking flight fn must deliver a *panicError to the
// runner and every waiter, clean its key out of the map, and leave the
// key usable for the next caller.
func TestFlightGroupPanicSafe(t *testing.T) {
	var g flightGroup
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	var waiterErr error
	go func() {
		defer wg.Done()
		<-started
		_, waiterErr, _ = g.Do("k", func() (any, error) { return "second", nil })
	}()
	_, err, _ := g.Do("k", func() (any, error) {
		close(started)
		// Give the waiter a beat to attach to this flight.
		time.Sleep(20 * time.Millisecond)
		panic("boom")
	})
	var pe *panicError
	if !errors.As(err, &pe) {
		t.Fatalf("runner got %T (%v), want *panicError", err, err)
	}
	wg.Wait()
	// The waiter either coalesced onto the panicking flight (gets the
	// panicError) or arrived after cleanup and ran its own fn (gets nil).
	if waiterErr != nil && !errors.As(waiterErr, &pe) {
		t.Fatalf("waiter got %v, want *panicError or success", waiterErr)
	}
	// The key must be fresh: a new call runs its own fn.
	v, err, shared := g.Do("k", func() (any, error) { return 42, nil })
	if err != nil || shared || v.(int) != 42 {
		t.Fatalf("post-panic flight: v=%v err=%v shared=%v", v, err, shared)
	}
}

// rawPost sends a raw body and returns status plus the decoded error
// envelope (zero-valued for 2xx).
func rawPost(t *testing.T, ts *httptest.Server, path, body string) (int, ErrorResponse) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var e ErrorResponse
	if resp.StatusCode != http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("POST %s: status %d with undecodable error body: %v", path, resp.StatusCode, err)
		}
	}
	return resp.StatusCode, e
}

// TestErrorCodeTaxonomy pins every failure class to its HTTP status and
// machine-readable code: the contract retrying clients branch on.
func TestErrorCodeTaxonomy(t *testing.T) {
	asmText, _ := bench.ExplosionAsm(3)
	srv := New(Config{Shards: 1, Workers: 1, MaxBodyBytes: 64 << 10})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	estimate := func(annots string) string {
		req := EstimateRequest{ProgramSpec: ProgramSpec{Asm: asmText, Root: "main"}, Annotations: annots}
		b, _ := json.Marshal(req)
		return string(b)
	}

	cases := []struct {
		name       string
		path, body string
		status     int
		code       string
	}{
		{"malformed json", "/v1/estimate", "{not json", http.StatusBadRequest, CodeBadBody},
		{"unknown field", "/v1/estimate", `{"bogus_field": 1}`, http.StatusBadRequest, CodeBadBody},
		{"oversized body", "/v1/estimate", `{"annotations": "` + strings.Repeat("x", 128<<10) + `"}`, http.StatusRequestEntityTooLarge, CodeTooLarge},
		{"no program", "/v1/estimate", `{"annotations": ""}`, http.StatusBadRequest, CodeBadRequest},
		{"not resident", "/v1/estimate", `{"program": "deadbeef"}`, http.StatusNotFound, CodeNotResident},
		{"both source and asm", "/v1/estimate", `{"source": "a", "asm": "b"}`, http.StatusBadRequest, CodeBadRequest},
		{"annotation syntax", "/v1/estimate", estimate("func main { loop 1: }"), http.StatusBadRequest, CodeAnnotation},
		{"unknown block", "/v1/estimate", estimate("func main {\n    x999 = 1\n}\n"), http.StatusBadRequest, CodeAnnotation},
		{"infeasible", "/v1/estimate", estimate("func main {\n    x2 = 1\n    x2 = 0\n}\n"), http.StatusUnprocessableEntity, CodeInfeasible},
		{"unbound symbol", "/v1/estimate", estimate("func main {\n    x2 = n1\n}\n"), http.StatusBadRequest, CodeUnboundSymbol},
		{"submit no text", "/v1/programs", `{}`, http.StatusBadRequest, CodeBadRequest},
		{"parametrize no specs", "/v1/parametrize", `{"asm": ` + mustJSON(asmText) + `, "annotations": ""}`, http.StatusBadRequest, CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, e := rawPost(t, ts, tc.path, tc.body)
			if status != tc.status || e.Code != tc.code {
				t.Errorf("got status %d code %q (%s), want %d %q", status, e.Code, e.Error, tc.status, tc.code)
			}
			if tc.code == CodeNotResident && !e.Resubmit {
				t.Errorf("not_resident must set resubmit")
			}
		})
	}
}

func mustJSON(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// TestChaosPanicIsolated injects a solver panic on every estimate: each
// request gets a typed 500, coalesced waiters are not deadlocked, and the
// process keeps serving every other endpoint.
func TestChaosPanicIsolated(t *testing.T) {
	asmText, annots := bench.ExplosionAsm(3)
	inj := chaos.New(chaos.Config{Seed: 7, SolvePanicEvery: 1})
	srv := New(Config{Shards: 1, Workers: 1, Chaos: inj})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(EstimateRequest{ProgramSpec: ProgramSpec{Asm: asmText, Root: "main"}, Annotations: annots})

	// Two concurrent identical requests coalesce onto one panicking
	// flight; both must come back as typed 500s, not hang.
	var wg sync.WaitGroup
	results := make([]struct {
		status int
		e      ErrorResponse
	}, 2)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/estimate", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("request %d: transport error: %v", i, err)
				return
			}
			defer resp.Body.Close()
			results[i].status = resp.StatusCode
			json.NewDecoder(resp.Body).Decode(&results[i].e)
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r.status != http.StatusInternalServerError || r.e.Code != CodePanic {
			t.Errorf("request %d: status %d code %q, want 500 %q", i, r.status, r.e.Code, CodePanic)
		}
	}
	if got := inj.Fired(chaos.SolvePanic); got == 0 {
		t.Fatal("injector never fired")
	}

	// The process is alive: health, stats, and submit all still answer.
	hr, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panics: %v %v", hr, err)
	}
	hr.Body.Close()
	var st StatsResponse
	sr, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	if err := json.NewDecoder(sr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Panics == 0 {
		t.Errorf("stats.panics = 0 after injected panics")
	}
	if st.Health != "ok" {
		t.Errorf("health %q after panics (panics degrade requests, not the process)", st.Health)
	}
}

// TestWatchdogWedgedSolve wedges every solve in an uncancellable sleep:
// the watchdog must cancel it, answer with a sound envelope (Exact=false,
// admission "watchdog"), and flip health to degraded after the threshold.
// The envelope comes from a pass under the token shed deadline, which
// finishes exactly when every set solves in time; the 256-set chain keeps
// both rounds' passes far from finishing, even with the sets the first
// round's pass leaves in the session cache.
func TestWatchdogWedgedSolve(t *testing.T) {
	asmText, annots := bench.ExplosionAsm(8)
	ref := oneShotEstimate(t, ProgramSpec{Asm: asmText, Root: "main"}, 1, annots)

	inj := chaos.New(chaos.Config{Seed: 3, SolveSlowEvery: 1, SlowSolve: 2 * time.Second})
	srv := New(Config{
		Shards: 1, Workers: 1,
		WatchdogCeiling:   50 * time.Millisecond,
		DegradedThreshold: 2,
		Chaos:             inj,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for round := 0; round < 2; round++ {
		var got EstimateResponse
		postJSON(t, ts.Client(), ts.URL+"/v1/estimate",
			EstimateRequest{ProgramSpec: ProgramSpec{Asm: asmText, Root: "main"}, Annotations: annots},
			&got, http.StatusOK)
		if got.Admission != "watchdog" {
			t.Fatalf("round %d: admission %q, want watchdog", round, got.Admission)
		}
		if got.Exact || !got.Degraded {
			t.Errorf("round %d: wedged answer claims exactness: %+v", round, got)
		}
		// Soundness: the envelope must bracket the exact bounds.
		if got.WCET.Cycles < ref.WCET.Cycles {
			t.Errorf("round %d: envelope WCET %d below exact %d — NON-SOUND", round, got.WCET.Cycles, ref.WCET.Cycles)
		}
		if got.BCET.Cycles > ref.BCET.Cycles {
			t.Errorf("round %d: envelope BCET %d above exact %d — NON-SOUND", round, got.BCET.Cycles, ref.BCET.Cycles)
		}
	}

	// Two consecutive wedges at threshold 2: degraded.
	hr, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after %d wedges: status %d, want 503", 2, hr.StatusCode)
	}
	var st StatsResponse
	sr, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	if err := json.NewDecoder(sr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Wedged != 2 || st.WedgeStreak != 2 || st.Health != "degraded" {
		t.Errorf("stats after wedges: wedged=%d streak=%d health=%q, want 2/2/degraded", st.Wedged, st.WedgeStreak, st.Health)
	}

	// A solve that finishes inside the ceiling resets the streak and
	// recovers health.
	srv.wedgeStreak.Store(0)
	hr2, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr2.Body.Close()
	if hr2.StatusCode != http.StatusOK {
		t.Errorf("healthz after streak reset: status %d, want 200", hr2.StatusCode)
	}
}

// TestWatchdogStreakResetBySuccess drives a wedge then a clean solve
// through the real path and checks the streak resets without manual help.
func TestWatchdogStreakResetBySuccess(t *testing.T) {
	asmText, annots := bench.ExplosionAsm(3)
	// Every 2nd solve wedges; the other completes normally.
	inj := chaos.New(chaos.Config{Seed: 1, SolveSlowEvery: 2, SlowSolve: 2 * time.Second})
	srv := New(Config{
		Shards: 1, Workers: 1,
		WatchdogCeiling:   50 * time.Millisecond,
		DegradedThreshold: 1,
		Chaos:             inj,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sawWedge, sawReset := false, false
	for round := 0; round < 4 && !(sawWedge && sawReset); round++ {
		var got EstimateResponse
		postJSON(t, ts.Client(), ts.URL+"/v1/estimate",
			EstimateRequest{ProgramSpec: ProgramSpec{Asm: asmText, Root: "main"}, Annotations: annots},
			&got, http.StatusOK)
		if got.Admission == "watchdog" {
			sawWedge = true
		} else if sawWedge {
			if srv.wedgeStreak.Load() != 0 {
				t.Fatalf("round %d: clean solve did not reset the wedge streak", round)
			}
			sawReset = true
		}
	}
	if !sawWedge || !sawReset {
		t.Fatalf("scenario incomplete: sawWedge=%v sawReset=%v (fired=%d)", sawWedge, sawReset, inj.Fired(chaos.SolveSlow))
	}
}
