package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/pythia-db/pythia/internal/dsb"
	corepythia "github.com/pythia-db/pythia/internal/pythia"
	"github.com/pythia-db/pythia/internal/quality"
	"github.com/pythia-db/pythia/internal/serve"
	"github.com/pythia-db/pythia/internal/sim"
	"github.com/pythia-db/pythia/internal/spec"
	"github.com/pythia-db/pythia/internal/storage"
	"github.com/pythia-db/pythia/internal/workload"
)

// feedbackEvery is how often a serve_hit client follows a predict with a
// feedback post: the write beside the read.
const feedbackEvery = 4

// wirePage is one page of the HTTP API's pages arrays.
type wirePage struct {
	Object string `json:"object"`
	Page   uint32 `json:"page"`
}

// predictReply is the part of a /v1/predict response the benchmark checks.
type predictReply struct {
	PredictionID string     `json:"prediction_id"`
	Workload     string     `json:"workload"`
	Fallback     bool       `json:"fallback"`
	Cached       bool       `json:"cached"`
	Pages        []wirePage `json:"pages"`
}

// feedbackReply is a /v1/feedback response.
type feedbackReply struct {
	Predicted     int     `json:"predicted"`
	Actual        int     `json:"actual"`
	TruePositives int     `json:"true_positives"`
	Precision     float64 `json:"precision"`
	Recall        float64 `json:"recall"`
}

// corpus is the seed-generated model input shared by the serve and train
// workloads: a database, t91 instances, and a train/held-out split.
type corpus struct {
	gen     *dsb.Generator
	all     []*workload.Instance
	train   []*workload.Instance
	heldOut []*workload.Instance
}

func buildCorpus(seed uint64, sc scale) corpus {
	gen := dsb.NewGenerator(dsb.Config{ScaleFactor: sc.ServeSF, Seed: seed})
	w := gen.Workload("t91", sc.Corpus, seed+1)
	train, heldOut := w.Split(sc.HeldOut, seed)
	return corpus{gen: gen, all: w.Instances, train: train, heldOut: heldOut}
}

// trainConfig is the model configuration every workload trains with: the
// repository defaults, with the epoch count the time budget allows.
func trainConfig(epochs int) corepythia.Config {
	cfg := corepythia.DefaultConfig()
	cfg.Predictor.Model.Epochs = epochs
	return cfg
}

// serveLR is the learning rate of the model the serve workloads load, three
// times the default, so that a model trained for the few epochs set-up can
// afford already predicts pages and responses carry page sets.
const serveLR = 3e-3

// serveEnv is one complete set-up of a serve workload: trained system, server,
// loopback listener, client.
type serveEnv struct {
	corpus
	sys      *corepythia.System
	tw       *corepythia.Trained
	srv      *serve.Server
	httpSrv  *http.Server
	served   chan struct{} // closed when httpSrv.Serve has returned
	base     string
	client   *http.Client
	clocks   [clients]refClock  // one per closed-loop client, kept across load calls
	bodies   [][]byte           // QuerySpec JSON per corpus entry
	truth    [][]byte           // feedback pages JSON per corpus entry
	expected [][]storage.PageID // direct System.Prefetch per corpus entry
}

func setupServe(seed uint64, sc scale, hit bool) (*serveEnv, error) {
	e := &serveEnv{corpus: buildCorpus(seed, sc)}
	cfg := trainConfig(sc.ServeEpochs)
	cfg.Predictor.Model.LR = serveLR
	e.sys = corepythia.New(e.gen.DB(), cfg)
	e.tw = e.sys.Train("t91", e.train)
	opts := serve.Options{CacheEntries: -1}
	if hit {
		opts.CacheEntries = 0 // the server's default capacity
	}
	var err error
	if e.srv, err = serve.New(e.gen.DB(), e.sys, nil, opts); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.srv.Close()
		return nil, err
	}
	e.httpSrv = &http.Server{Handler: e.srv.Handler()}
	e.served = make(chan struct{})
	//pythia:goleak-ok Serve returns once close() closes the server, and close() waits on served
	go func() {
		defer close(e.served)
		e.httpSrv.Serve(ln)
	}()
	e.base = "http://" + ln.Addr().String()
	e.client = &http.Client{Timeout: 30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}}

	reg := e.gen.DB().Registry
	for _, inst := range e.all {
		var buf bytes.Buffer
		if err := spec.FromQuery(inst.Query).Encode(&buf); err != nil {
			e.close()
			return nil, err
		}
		e.bodies = append(e.bodies, buf.Bytes())
		raw, err := json.Marshal(toWire(reg, inst.Pages))
		if err != nil {
			e.close()
			return nil, err
		}
		e.truth = append(e.truth, raw)
	}
	return e, nil
}

func (e *serveEnv) close() {
	e.httpSrv.Close()
	<-e.served
	e.client.CloseIdleConnections()
	e.srv.Close()
}

func toWire(reg *storage.Registry, pages []storage.PageID) []wirePage {
	out := make([]wirePage, len(pages))
	for i, p := range pages {
		out[i] = wirePage{Object: reg.Lookup(p.Object).Name, Page: uint32(p.Page)}
	}
	return out
}

// post sends one JSON body and returns the status and the whole response body.
func (e *serveEnv) post(path string, body []byte) (int, []byte, error) {
	resp, err := e.client.Post(e.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// checkPredict verifies one predict answer for corpus entry i: 200, the right
// workload, the cached flag the workload expects (nil: either), and exactly the
// page set a direct System.Prefetch gives for the same plan.
func (e *serveEnv) checkPredict(chk *checker, i, status int, body []byte, err error, wantCached *bool) (predictReply, bool) {
	var pr predictReply
	if !chk.check(err == nil && status == http.StatusOK, "predict %d: status %d err %v body %.200s", i, status, err, body) {
		return pr, false
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		return pr, chk.check(false, "predict %d: %v", i, err)
	}
	reg := e.gen.DB().Registry
	same := len(pr.Pages) == len(e.expected[i]) && !pr.Fallback && pr.Workload == "t91"
	for k := 0; same && k < len(pr.Pages); k++ {
		want := e.expected[i][k]
		same = pr.Pages[k].Object == reg.Lookup(want.Object).Name && pr.Pages[k].Page == uint32(want.Page)
	}
	if wantCached != nil && pr.Cached != *wantCached {
		same = false
	}
	return pr, chk.check(same, "predict %d: cached=%v fallback=%v, %d pages served, %d expected", i, pr.Cached, pr.Fallback, len(pr.Pages), len(e.expected[i]))
}

// checkFeedback verifies a feedback answer against the score computed locally
// from the same two page sets.
func (e *serveEnv) checkFeedback(chk *checker, i, status int, body []byte, err error) bool {
	if !chk.check(err == nil && status == http.StatusOK, "feedback %d: status %d err %v body %.200s", i, status, err, body) {
		return false
	}
	var fr feedbackReply
	if err := json.Unmarshal(body, &fr); err != nil {
		return chk.check(false, "feedback %d: %v", i, err)
	}
	want := quality.ScoreSets(e.expected[i], e.all[i].Pages)
	return chk.check(fr.Predicted == want.Predicted && fr.Actual == want.Actual && fr.TruePositives == want.TruePos &&
		fr.Precision == want.Precision() && fr.Recall == want.Recall(),
		"feedback %d: got %+v, want %+v", i, fr, want)
}

func feedbackBody(id string, truth []byte) []byte {
	return []byte(`{"prediction_id":` + strconv.Quote(id) + `,"pages":` + string(truth) + `}`)
}

// load drives the server for d with closed-loop clients, each on its own
// keep-alive connection, drawing corpus entries uniformly from a per-client
// seeded stream and running the reference loop every referenceEvery. It
// returns every verified predict. Feedback posts (serve_hit) are verified and
// counted but are not predict samples.
func (e *serveEnv) load(d time.Duration, seed uint64, hit bool, chk *checker) (predicts, feedback []opSample) {
	perClient := make([][]opSample, clients)
	perClientFB := make([][]opSample, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := sim.NewRand(seed*1_000_003 + uint64(c) + 1)
			clock := &e.clocks[c]
			for n := 1; time.Since(start) < d; n++ {
				i := rng.Intn(len(e.bodies))
				t0 := time.Now()
				status, body, err := e.post("/v1/predict", e.bodies[i])
				lat := time.Since(t0)
				pr, ok := e.checkPredict(chk, i, status, body, err, &hit)
				if ok {
					perClient[c] = append(perClient[c], opSample{lat, clock.tick()})
				}
				if hit && ok && n%feedbackEvery == 0 {
					t0 := time.Now()
					status, body, err := e.post("/v1/feedback", feedbackBody(pr.PredictionID, e.truth[i]))
					lat := time.Since(t0)
					if e.checkFeedback(chk, i, status, body, err) {
						perClientFB[c] = append(perClientFB[c], opSample{lat, clock.tick()})
					}
				}
			}
		}()
	}
	wg.Wait()
	for c := range perClient {
		predicts = append(predicts, perClient[c]...)
		feedback = append(feedback, perClientFB[c]...)
	}
	return predicts, feedback
}

// serverStats is the part of GET /stats the per-layer metrics read.
type serverStats struct {
	Shed     float64 `json:"requests_shed"`
	Timeouts float64 `json:"inference_timeouts"`
	// Absent with the cache or the batcher off; the counters then read 0.
	PredCache struct {
		Hits   float64 `json:"hits"`
		Misses float64 `json:"misses"`
	} `json:"predcache"`
	Batching struct {
		Batches         float64 `json:"batches"`
		BatchedRequests float64 `json:"batched_requests"`
	} `json:"batching"`
}

func (e *serveEnv) stats() (serverStats, error) {
	var st serverStats
	resp, err := e.client.Get(e.base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/stats answered %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func runServe(cfg config, hit bool) (*workloadResult, error) {
	res := &workloadResult{Name: cfg.Workload, EndToEnd: metricSet{}, PerLayer: metricSet{}}
	chk := &checker{}
	sc := cfg.Scale

	// Every set-up is complete; the previous one is torn down first.
	var env *serveEnv
	setup := func() (err error) {
		if env != nil {
			env.close()
		}
		env, err = setupServe(cfg.Seed, sc, hit)
		return err
	}
	if err := cfg.setUp(res.EndToEnd, setup); err != nil {
		return nil, err
	}
	defer env.close()

	// The reference every served page set is checked against.
	for _, inst := range env.all {
		env.expected = append(env.expected, env.sys.Prefetch(inst))
	}

	// Warm-up: serve_hit fills the cache with one pass over the corpus (two
	// corpus entries can share a plan, so the cached flag is not checked
	// here); serve_miss lets connections, pools and arenas settle.
	if hit {
		for i := range env.bodies {
			status, body, err := env.post("/v1/predict", env.bodies[i])
			env.checkPredict(chk, i, status, body, err, nil)
		}
	} else {
		env.load(cfg.phase()/10, cfg.Seed+7, false, chk)
	}

	if cfg.untraced() {
		segs := timedPhase(cfg.phase(), func(i int, d time.Duration) []opSample {
			predicts, _ := env.load(d, cfg.Seed+100*uint64(i+1), hit, chk)
			return predicts
		})
		if err := summarize(segs, res.EndToEnd); err != nil {
			return nil, err
		}
	}
	if cfg.traced() {
		if err := env.traced(cfg, hit, chk, res); err != nil {
			return nil, err
		}
	}
	chk.into(res)
	return res, nil
}
