package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"repro/internal/randx"
	"repro/internal/server"
	"repro/internal/workload"
)

// schedule is one seeded request stream. The program receives the requests,
// never the seed.
type schedule struct {
	// gaps[i] is the virtual time between request i-1 and request i.
	gaps []float64
	// reqs[i] is request i as a decoded value (direct Submit legs); bodies[i]
	// is the same request as JSON, wire[i] as a complete HTTP/1.1 request.
	reqs   []server.TaskRequest
	bodies [][]byte
	wire   [][]byte
}

type scheduleKind int

const (
	// paperCycle repeats §VI's arrival pattern every 1 000 tasks: 200 at
	// λ_fast (3.5·λ_eq), 600 at λ_slow (0.583·λ_eq), 200 at λ_fast.
	paperCycle scheduleKind = iota
	// poissonEq is a homogeneous Poisson stream at 1.0·λ_eq, tagged
	// round-robin with three tenants.
	poissonEq
)

var tenantClasses = []string{"gold", "silver", "bronze"}

func genSchedule(seed uint64, n int, m *workload.Model, kind scheduleKind) *schedule {
	root := randx.NewStream(seed).Child("requests")
	gapRng, typeRng, quantRng := root.Child("gaps"), root.Child("types"), root.Child("quantiles")
	s := &schedule{
		gaps:   make([]float64, n),
		reqs:   make([]server.TaskRequest, n),
		bodies: make([][]byte, n),
		wire:   make([][]byte, n),
	}
	window, burst := m.Params.WindowSize, m.Params.BurstLen
	for i := 0; i < n; i++ {
		rate := m.EquilibriumRate()
		if kind == paperCycle {
			rate = m.SlowRate()
			if c := i % window; c < burst || c >= window-burst {
				rate = m.FastRate()
			}
		}
		s.gaps[i] = gapRng.Exponential(rate)
		u := quantRng.Float64()
		if u <= 0 {
			u = 1e-12
		}
		req := server.TaskRequest{Type: typeRng.IntN(m.Params.TaskTypes), U: &u}
		body := fmt.Sprintf(`{"type":%d,"u":%s`, req.Type, strconv.FormatFloat(u, 'g', -1, 64))
		if kind == poissonEq {
			class := tenantClasses[i%len(tenantClasses)]
			req.Tenant, req.SLO = class, &class
			body += fmt.Sprintf(`,"tenant":%q,"slo":%q`, class, class)
		}
		body += "}"
		s.reqs[i] = req
		s.wire[i] = []byte(fmt.Sprintf(
			"POST /v1/tasks HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
			len(body), body))
		s.bodies[i] = s.wire[i][len(s.wire[i])-len(body):]
	}
	return s
}

// httpConn is a minimal HTTP/1.1 keep-alive client: the generator shares
// the box's two cores with the server, so it must cost as little as it can.
// It understands exactly what net/http sends for a small JSON reply — a
// status line, headers with Content-Length, the body.
type httpConn struct {
	c   net.Conn
	br  *bufio.Reader
	buf []byte
}

func dialHTTP(addr string, deadline time.Time) (*httpConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	// One deadline for the whole leg: a hung server fails the run instead of
	// hanging it, without a timer reset per request.
	if err := c.SetDeadline(deadline); err != nil {
		c.Close()
		return nil, err
	}
	return &httpConn{c: c, br: bufio.NewReaderSize(c, 4096), buf: make([]byte, 1024)}, nil
}

func (h *httpConn) send(wire []byte) error {
	_, err := h.c.Write(wire)
	return err
}

var (
	hdrContentLength = []byte("content-length:")
	errBadResponse   = errors.New("malformed HTTP response")
)

// recv reads one response; the body is valid until the next recv.
func (h *httpConn) recv() (status int, body []byte, err error) {
	line, err := h.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, errBadResponse
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, nil, errBadResponse
	}
	length := -1
	for {
		if line, err = h.br.ReadSlice('\n'); err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		if len(line) > len(hdrContentLength) && bytes.EqualFold(line[:len(hdrContentLength)], hdrContentLength) {
			if length, err = strconv.Atoi(string(bytes.TrimSpace(line[len(hdrContentLength):]))); err != nil {
				return 0, nil, errBadResponse
			}
		}
	}
	if length < 0 {
		return 0, nil, fmt.Errorf("%w: no Content-Length", errBadResponse)
	}
	if length > cap(h.buf) {
		h.buf = make([]byte, length)
	}
	body = h.buf[:length]
	if _, err = io.ReadFull(h.br, body); err != nil {
		return 0, nil, err
	}
	return status, body, nil
}

func (h *httpConn) close() { _ = h.c.Close() }

// legResult is what one timed leg of requests measured, indexed by request.
type legResult struct {
	latUs  []float64
	status []int
	// Window w covers requests [w·size, (w+1)·size), the last one to the
	// end. winWallS[w] is the time from its first send to the next window's
	// first send (or the leg's end), winCPUS[w] the process CPU over that
	// interval.
	winWallS, winCPUS []float64
	wall              time.Duration
	// open loop only: send − due and reply − due, µs
	lateUs, fromDueUs []float64
	// digest is the SHA-256 over the response bodies in schedule order
	// (one connection on a manual clock only: there the decision stream is a
	// pure function of the schedule).
	digest string
	errMu  sync.Mutex
	errs   int64
	first  error
}

func (l *legResult) noteErr(err error) {
	l.errMu.Lock()
	l.errs++
	if l.first == nil {
		l.first = err
	}
	l.errMu.Unlock()
}

// windowMarks samples wall and CPU time as a leg's cursor crosses each
// window boundary. mark is called with the cursor held (or from a single
// goroutine), once per request index in increasing order.
type windowMarks struct {
	size, windows int
	wall          []time.Time
	cpu           []time.Duration
}

func newWindowMarks(n, windows int) *windowMarks {
	windows = max(1, min(windows, n))
	return &windowMarks{size: n / windows, windows: windows,
		wall: make([]time.Time, 0, windows+1), cpu: make([]time.Duration, 0, windows+1)}
}

func (m *windowMarks) mark(i int, now time.Time) {
	if i%m.size == 0 && len(m.wall) < m.windows {
		m.wall = append(m.wall, now)
		m.cpu = append(m.cpu, cpuTime())
	}
}

func (m *windowMarks) finish(leg *legResult) {
	m.wall = append(m.wall, time.Now())
	m.cpu = append(m.cpu, cpuTime())
	for w := 0; w+1 < len(m.wall); w++ {
		leg.winWallS = append(leg.winWallS, m.wall[w+1].Sub(m.wall[w]).Seconds())
		leg.winCPUS = append(leg.winCPUS, (m.cpu[w+1] - m.cpu[w]).Seconds())
	}
	leg.wall = m.wall[len(m.wall)-1].Sub(m.wall[0])
}

const legTimeout = 150 * time.Second

func dialAll(addr string, conns int) ([]*httpConn, error) {
	deadline := time.Now().Add(legTimeout)
	hc := make([]*httpConn, 0, conns)
	for i := 0; i < conns; i++ {
		c, err := dialHTTP(addr, deadline)
		if err != nil {
			for _, open := range hc {
				open.close()
			}
			return nil, err
		}
		hc = append(hc, c)
	}
	return hc, nil
}

// httpLeg sends requests [0, n) over `conns` keep-alive connections, one
// sender goroutine each, sharing one schedule cursor.
//
// Closed loop (due == nil): under the cursor's mutex a sender takes the next
// index, advances the manual clock by that request's gap and writes the
// request, then waits for the reply outside the lock. With one connection
// this is the strict loop (advance, POST, wait, repeat); with P the engine
// can see up to P decisions per loop iteration.
//
// Open loop (due != nil): a sender takes the next index, sleeps until
// dueNs[i] after the leg's start, sends and waits. Latency is timed from the
// actual send; how late the send was is recorded beside it.
func httpLeg(addr string, sch *schedule, due []int64, clk *server.ManualClock, n, conns, windows int, tr *tracer, parent int) (*legResult, error) {
	open := due != nil
	leg := &legResult{latUs: make([]float64, n), status: make([]int, n)}
	if open {
		leg.lateUs, leg.fromDueUs = make([]float64, n), make([]float64, n)
	}
	hc, err := dialAll(addr, conns)
	if err != nil {
		return nil, err
	}
	hash := sha256.New()
	hashed := conns == 1 && !open
	var mu sync.Mutex
	next := 0
	marks := newWindowMarks(n, windows)
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range hc {
		wg.Add(1)
		go func(c *httpConn) {
			defer wg.Done()
			defer c.close()
			for {
				mu.Lock()
				i := next
				if i >= n {
					mu.Unlock()
					return
				}
				next++
				marks.mark(i, time.Now())
				var dueAt time.Time
				if open {
					mu.Unlock()
					dueAt = start.Add(time.Duration(due[i]))
					if d := time.Until(dueAt); d > 0 {
						time.Sleep(d)
					}
				} else {
					clk.Advance(sch.gaps[i])
				}
				sp := tr.start("http.roundtrip", parent, int64(i))
				sent := time.Now()
				err := c.send(sch.wire[i])
				if !open {
					mu.Unlock()
				}
				var body []byte
				if err == nil {
					leg.status[i], body, err = c.recv()
				}
				done := time.Now()
				tr.end(sp)
				leg.latUs[i] = float64(done.Sub(sent)) / float64(time.Microsecond)
				if open {
					leg.lateUs[i] = float64(sent.Sub(dueAt)) / float64(time.Microsecond)
					leg.fromDueUs[i] = float64(done.Sub(dueAt)) / float64(time.Microsecond)
				}
				if err != nil {
					leg.noteErr(err)
					return // the connection is unusable
				}
				if hashed {
					hash.Write(body)
				}
			}
		}(c)
	}
	wg.Wait()
	marks.finish(leg)
	if hashed {
		leg.digest = hex.EncodeToString(hash.Sum(nil))
	}
	return leg, nil
}

// submitter is the in-process entry point a direct leg drives: an Engine or
// a Router.
type submitter interface {
	Submit(server.TaskRequest) (server.Decision, error)
}

// directLoop is the closed loop without the socket: advance the clock,
// Submit, repeat. A pre-admission rejection is a failure here exactly as a
// 429/503 is over HTTP.
func directLoop(s submitter, sch *schedule, n int, clk *server.ManualClock, spanName string, tr *tracer, parent int) *legResult {
	leg := &legResult{latUs: make([]float64, n), status: make([]int, n)}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		clk.Advance(sch.gaps[i])
		sp := tr.start(spanName, parent, int64(i))
		sent := time.Now()
		d, err := s.Submit(sch.reqs[i])
		leg.latUs[i] = float64(time.Since(sent)) / float64(time.Microsecond)
		tr.end(sp)
		switch {
		case err != nil:
			leg.noteErr(err)
		case d.Status == server.StatusMapped:
			leg.status[i] = 200
		case d.Status == server.StatusShed:
			leg.status[i] = 422
		default:
			leg.status[i] = 504
		}
	}
	leg.wall = time.Since(t0)
	return leg
}
