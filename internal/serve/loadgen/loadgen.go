// Package loadgen is the load harness for cinderelld: it drives a live
// server over HTTP with a configurable mix of estimate workloads and
// measures what the paper's interactive workflow feels like as a service —
// throughput, latency percentiles split warm vs cold, eviction churn, and,
// crucially, soundness under load: every response is checked against the
// workload's exact reference bounds, and any answer tighter than exact is
// counted as non-sound. A healthy server reports NonSound == 0 under any
// load whatsoever.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cinderella/internal/serve"
	"cinderella/internal/serve/client"
)

// Workload is one request shape in the mix.
type Workload struct {
	Name        string
	Spec        serve.ProgramSpec
	Annotations string
	// Params, when set, makes the request a parametric point query.
	Params map[string]int64
	// SLOMillis is sent as the request SLO (0 = server default).
	SLOMillis float64
	// RefWCET/RefBCET are the exact bounds of this workload, used for the
	// soundness check. Both zero disables the check.
	RefWCET int64
	RefBCET int64
}

// Config shapes one load run.
type Config struct {
	// BaseURL is the server under test, e.g. http://127.0.0.1:8372.
	BaseURL string
	// Clients is the number of concurrent request loops (default 4).
	Clients int
	// Duration bounds the run (default 2s); MaxRequests additionally caps
	// total requests when nonzero.
	Duration    time.Duration
	MaxRequests int64
	// Workloads is the request mix, round-robined per client.
	Workloads []Workload
	// Client overrides the HTTP client (default http.DefaultClient).
	Client *http.Client
}

// Result is the ledger of one run.
type Result struct {
	Requests int64
	// Errors counts transport failures and untyped answers — the things a
	// healthy server never produces. TypedErrors counts non-2xx responses
	// that carried a machine-readable error envelope: under fault
	// injection those are the server failing *correctly*.
	Errors      int64
	TypedErrors int64
	// Retries is the client's transport-retry total across the run.
	Retries    int64
	NonSound   int64
	Degraded   int64
	Shed       int64
	Coalesced  int64
	ColdStarts int64
	// Evictions is the store's eviction delta across the run (taken from
	// /v1/stats before and after).
	Evictions int64

	Duration  time.Duration
	ReqPerSec float64
	// P50/P99 are over all requests; WarmP50/ColdP50 split by whether the
	// response reported a cold start (session prepared by that request).
	P50     time.Duration
	P99     time.Duration
	WarmP50 time.Duration
	ColdP50 time.Duration
	// PrepareP50/PrepareP99 are over the prepare_us the server reported on
	// cold responses: the frontend+Prepare pipeline alone, with queueing and
	// solving excluded — the dedicated view of the cold path the artifact
	// cache attacks.
	PrepareP50 time.Duration
	PrepareP99 time.Duration
	// ArtifactHitRate is Δhits/(Δhits+Δmisses) of the server's process-wide
	// prepare-artifact cache across the run (0 when no artifact traffic).
	ArtifactHitRate float64
}

// String renders the run the way the smoke logs want it.
func (r Result) String() string {
	return fmt.Sprintf("%d req in %s (%.0f req/s), p50 %s p99 %s (warm p50 %s, cold p50 %s, prepare p50 %s p99 %s, artifact hit rate %.2f), %d degraded, %d shed, %d coalesced, %d cold, %d evictions, %d errors, %d typed errors, %d retries, %d NON-SOUND",
		r.Requests, r.Duration.Round(time.Millisecond), r.ReqPerSec,
		r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond),
		r.WarmP50.Round(time.Microsecond), r.ColdP50.Round(time.Microsecond),
		r.PrepareP50.Round(time.Microsecond), r.PrepareP99.Round(time.Microsecond), r.ArtifactHitRate,
		r.Degraded, r.Shed, r.Coalesced, r.ColdStarts, r.Evictions, r.Errors, r.TypedErrors, r.Retries, r.NonSound)
}

// Run drives the server until the duration (and optional request cap) is
// spent and returns the merged ledger.
func Run(cfg Config) (Result, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 4
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if len(cfg.Workloads) == 0 {
		return Result{}, fmt.Errorf("loadgen: no workloads")
	}
	cl := client.New(client.Config{Base: cfg.BaseURL, HTTP: cfg.Client})

	statsBefore, err := cl.Stats(context.Background())
	if err != nil {
		return Result{}, err
	}

	var (
		res      Result
		reqCount atomic.Int64
		mu       sync.Mutex
		warmLat  []time.Duration
		coldLat  []time.Duration
		prepLat  []time.Duration
		wg       sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var myWarm, myCold, myPrep []time.Duration
			var errs, typedErrs, nonSound, degraded, shed, coalesced, cold int64
			for i := 0; time.Now().Before(deadline); i++ {
				if cfg.MaxRequests > 0 && reqCount.Add(1) > cfg.MaxRequests {
					reqCount.Add(-1)
					break
				} else if cfg.MaxRequests == 0 {
					reqCount.Add(1)
				}
				w := &cfg.Workloads[(c+i)%len(cfg.Workloads)]
				t0 := time.Now()
				resp, err := estimateOnce(cl, w)
				lat := time.Since(t0)
				if err != nil {
					// A typed envelope is the server failing correctly; an
					// untyped answer or transport failure is the real error.
					var ae *client.APIError
					if errors.As(err, &ae) && ae.Code != "" {
						typedErrs++
					} else {
						errs++
					}
					continue
				}
				if resp.ColdStart {
					cold++
					myCold = append(myCold, lat)
					if resp.PrepareMicros > 0 {
						myPrep = append(myPrep, time.Duration(resp.PrepareMicros)*time.Microsecond)
					}
				} else {
					myWarm = append(myWarm, lat)
				}
				if resp.Degraded {
					degraded++
				}
				if resp.Admission == "shed" {
					shed++
				}
				if resp.Coalesced {
					coalesced++
				}
				if w.RefWCET != 0 || w.RefBCET != 0 {
					// Soundness: WCET never below exact, BCET never above;
					// an exact claim must hit the reference dead on.
					if resp.WCET.Cycles < w.RefWCET || resp.BCET.Cycles > w.RefBCET {
						nonSound++
					} else if resp.Exact && (resp.WCET.Cycles != w.RefWCET || resp.BCET.Cycles != w.RefBCET) {
						nonSound++
					}
				}
			}
			mu.Lock()
			warmLat = append(warmLat, myWarm...)
			coldLat = append(coldLat, myCold...)
			prepLat = append(prepLat, myPrep...)
			res.Errors += errs
			res.TypedErrors += typedErrs
			res.NonSound += nonSound
			res.Degraded += degraded
			res.Shed += shed
			res.Coalesced += coalesced
			res.ColdStarts += cold
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.Duration = time.Since(start)
	res.Requests = reqCount.Load()
	res.Retries = cl.Retries()

	statsAfter, err := cl.Stats(context.Background())
	if err != nil {
		return res, err
	}
	res.Evictions = statsAfter.Store.Evictions - statsBefore.Store.Evictions
	dHits := statsAfter.Artifacts.Hits - statsBefore.Artifacts.Hits
	dMisses := statsAfter.Artifacts.Misses - statsBefore.Artifacts.Misses
	if dHits+dMisses > 0 {
		res.ArtifactHitRate = float64(dHits) / float64(dHits+dMisses)
	}
	if res.Duration > 0 {
		res.ReqPerSec = float64(res.Requests) / res.Duration.Seconds()
	}
	all := append(append([]time.Duration(nil), warmLat...), coldLat...)
	res.P50 = percentile(all, 50)
	res.P99 = percentile(all, 99)
	res.WarmP50 = percentile(warmLat, 50)
	res.ColdP50 = percentile(coldLat, 50)
	res.PrepareP50 = percentile(prepLat, 50)
	res.PrepareP99 = percentile(prepLat, 99)
	return res, nil
}

// estimateOnce sends one estimate with the workload's inline program spec,
// so the request succeeds whether the session is resident or was evicted.
// The client retries transport failures transparently — idempotent
// re-submission is safe because programs are content-addressed.
func estimateOnce(cl *client.Client, w *Workload) (*serve.EstimateResponse, error) {
	return cl.Estimate(context.Background(), serve.EstimateRequest{
		ProgramSpec: w.Spec,
		Annotations: w.Annotations,
		Params:      w.Params,
		SLOMillis:   w.SLOMillis,
	})
}

// percentile returns the p-th percentile (nearest-rank) of lats.
func percentile(lats []time.Duration, p int) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := (len(sorted)*p + 99) / 100
	if idx < 1 {
		idx = 1
	}
	return sorted[idx-1]
}
