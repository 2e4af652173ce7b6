package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"netags/internal/cluster"
	"netags/internal/obs/httpserve"
	"netags/internal/serve"
)

// benchCluster is scripts/cluster_e2e.sh's topology in one process: a
// cluster.Router in front of two serve workers, each with one job worker,
// all over loopback HTTP, and one client with a bounded connection pool.
// With a non-nil span log, every layer boundary records spans.
type benchCluster struct {
	managers []*serve.Manager
	servers  []*http.Server
	served   sync.WaitGroup
	router   *cluster.Router
	client   *serve.Client
	conns    *http.Transport // the client's pool
	proxy    *http.Transport // the router's pool
}

// startCluster brings the cluster up. conns bounds the client's
// connections to the router.
//
// The router knows the workers by the fixed addresses that
// scripts/cluster_e2e.sh gives its first two workers, and its transport
// dials them at the listeners' real loopback addresses. The ring hashes
// backend addresses, so fixed ones keep each key's owner the same from run
// to run; with the listeners' random ports the workers' keyspace shares
// would change every run.
func startCluster(conns int, log *spanLog) (*benchCluster, error) {
	c := &benchCluster{}
	names := []string{"127.0.0.1:19381", "127.0.0.1:19382"}
	addrs := make(map[string]string, len(names))
	for _, name := range names {
		m := serve.NewManager(serve.Config{Workers: 1, JobWorkers: 1})
		c.managers = append(c.managers, m)
		var h http.Handler = serve.NewHandler(m, httpserve.Options{})
		if log != nil {
			h = workerSpans(log, h)
		}
		addr, err := c.listen(h)
		if err != nil {
			c.close()
			return nil, err
		}
		addrs[name] = addr
	}
	var dialer net.Dialer
	c.proxy = &http.Transport{
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     90 * time.Second,
		DialContext: func(ctx context.Context, network, name string) (net.Conn, error) {
			addr, ok := addrs[name]
			if !ok {
				return nil, fmt.Errorf("unknown worker %q", name)
			}
			return dialer.DialContext(ctx, network, addr)
		},
	}
	var rtp http.RoundTripper = c.proxy
	if log != nil {
		rtp = &proxySpans{log: log, base: c.proxy}
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{Backends: names, Transport: rtp})
	if err != nil {
		c.close()
		return nil, err
	}
	c.router = rt
	var h http.Handler = rt.Handler(httpserve.Options{})
	if log != nil {
		h = routerSpans(log, h)
	}
	addr, err := c.listen(h)
	if err != nil {
		c.close()
		return nil, err
	}
	c.conns = &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	var ctp http.RoundTripper = c.conns
	if log != nil {
		ctp = clientStamp{base: c.conns}
	}
	c.client = &serve.Client{BaseURL: "http://" + addr, HTTPClient: &http.Client{Transport: ctp}}
	return c, nil
}

func (c *benchCluster) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	c.servers = append(c.servers, srv)
	c.served.Add(1)
	go func() {
		defer c.served.Done()
		srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}()
	return ln.Addr().String(), nil
}

// close stops the servers, the managers and the connection pools, and
// waits until every serving goroutine has returned.
func (c *benchCluster) close() {
	for _, s := range c.servers {
		s.Close()
	}
	c.served.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, m := range c.managers {
		m.Shutdown(ctx) //nolint:errcheck // a timed-out drain only leaves jobs unfinished
	}
	for _, t := range []*http.Transport{c.conns, c.proxy} {
		if t != nil {
			t.CloseIdleConnections()
		}
	}
}

// clusterStats is a snapshot of the counters the serve workloads check
// and report.
type clusterStats struct {
	executed, hits, misses int64
	forwarded, fwdErrs     int64
	failovers              int64
	perBackend             []int64
}

func (c *benchCluster) stats() clusterStats {
	var s clusterStats
	for _, m := range c.managers {
		s.executed += m.Stats().Executed
		cs := m.Cache().Stats()
		s.hits += cs.Hits
		s.misses += cs.Misses
	}
	st := c.router.Status()
	s.forwarded = st.Counters.Forwarded
	s.fwdErrs = st.Counters.ForwardErrors
	s.failovers = st.Counters.Failovers
	for _, b := range st.Backends {
		s.perBackend = append(s.perBackend, b.Requests)
	}
	return s
}

// serveLayers reports the serve and cluster counters of a timed phase.
func serveLayers(v map[string]float64, before, after clusterStats) {
	v["serve.executed"] = float64(after.executed - before.executed)
	if n := (after.hits - before.hits) + (after.misses - before.misses); n > 0 {
		v["serve.cache_hit_ratio"] = float64(after.hits-before.hits) / float64(n)
	}
	v["cluster.forward_errors"] = float64(after.fwdErrs - before.fwdErrs)
	v["cluster.failovers"] = float64(after.failovers - before.failovers)
	if fwd := after.forwarded - before.forwarded; fwd > 0 {
		top := int64(0)
		for i := range after.perBackend {
			top = max(top, after.perBackend[i]-before.perBackend[i])
		}
		v["cluster.max_backend_share"] = float64(top) / float64(fwd)
	}
}

// spanLayers reports the span-derived per-op self times of a traced phase
// and returns the mean traced op in ms.
func spanLayers(v map[string]float64, spans []span) float64 {
	self, opMean := selfByLayer(spans, "op")
	v["net.residual_ms"] = self["op"]
	v["cluster.handler_self_ms"] = self["cluster.router"]
	v["cluster.proxy_ms"] = self["cluster.proxy"]
	v["serve.submit_ms"] = self["serve.submit"]
	v["serve.result_ms"] = self["serve.result"]
	return opMean
}

// submit posts a spec through the router and checks that the reply names
// the spec's content address.
func submit(ctx context.Context, c *serve.Client, spec serve.JobSpec, key string) (serve.SubmitResponse, error) {
	resp, err := c.Submit(ctx, spec, serve.SubmitOptions{})
	if err != nil {
		return resp, err
	}
	if resp.ID != key {
		return resp, fmt.Errorf("job id %s is not the spec key %s", resp.ID, key)
	}
	return resp, nil
}

// awaitResult follows a submitted job to its end and fetches its payload.
func awaitResult(ctx context.Context, c *serve.Client, id string) ([]byte, serve.JobStatus, error) {
	st, err := c.Await(ctx, id, nil)
	if err != nil {
		return nil, st, err
	}
	if st.State != serve.StateDone {
		return nil, st, fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
	}
	payload, err := c.Result(ctx, id)
	if err == nil && payload == nil {
		err = errors.New("result still pending after the job finished")
	}
	return payload, st, err
}

// --- span wrappers ------------------------------------------------------

// clientStamp stamps outgoing requests with the op span in their context.
type clientStamp struct{ base http.RoundTripper }

func (t clientStamp) RoundTrip(r *http.Request) (*http.Response, error) {
	if oc, ok := opFrom(r.Context()); ok {
		r = r.Clone(r.Context())
		r.Header.Set(hdrOp, strconv.FormatInt(oc.op, 10))
		r.Header.Set(hdrParent, strconv.FormatInt(oc.parent, 10))
	}
	return t.base.RoundTrip(r)
}

func stamped(h http.Header) (op, parent int64, ok bool) {
	op, err1 := strconv.ParseInt(h.Get(hdrOp), 10, 64)
	parent, err2 := strconv.ParseInt(h.Get(hdrParent), 10, 64)
	return op, parent, err1 == nil && err2 == nil
}

// routerSpans wraps Router.Handler: one "cluster.router" span per request.
func routerSpans(log *spanLog, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, parent, ok := stamped(r.Header)
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		s := log.begin("cluster.router", op, parent)
		r.Header.Set(hdrParent, strconv.FormatInt(s.ID, 10))
		next.ServeHTTP(w, r)
		log.end(s)
	})
}

// proxySpans is the router's RoundTripper: one "cluster.proxy" span per
// attempt, from the call until the relayed body is closed.
type proxySpans struct {
	log  *spanLog
	base http.RoundTripper
}

func (t *proxySpans) RoundTrip(r *http.Request) (*http.Response, error) {
	op, parent, ok := stamped(r.Header)
	if !ok {
		return t.base.RoundTrip(r)
	}
	s := t.log.begin("cluster.proxy", op, parent)
	r = r.Clone(r.Context())
	r.Header.Set(hdrParent, strconv.FormatInt(s.ID, 10))
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		t.log.end(s)
		return nil, err
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, end: func() { t.log.end(s) }}
	return resp, nil
}

type endOnClose struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *endOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// workerSpans wraps serve.NewHandler: one span per request, named after
// the jobs route it serves.
func workerSpans(log *spanLog, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, parent, ok := stamped(r.Header)
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		s := log.begin(workerRoute(r), op, parent)
		next.ServeHTTP(w, r)
		log.end(s)
	})
}

func workerRoute(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost:
		return "serve.submit"
	case strings.HasSuffix(p, "/result"):
		return "serve.result"
	case strings.HasSuffix(p, "/stream"):
		return "serve.stream"
	}
	return "serve.other"
}
