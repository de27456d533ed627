package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"unchained/internal/flight"
	"unchained/internal/serve"
)

// daemon is an unchained-serve child process with default flags,
// listening on a free loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	pid    string
	exited chan struct{}
}

// startDaemon starts bin with the given extra flags and waits until it
// answers /healthz.
func startDaemon(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// The daemon must not outlive the benchmark, even when the
	// benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, pid: strconv.Itoa(cmd.Process.Pid), exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		// Read the "listening on" line, then drain stdout until exit.
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "unchained-serve: listening on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
		}
		_ = cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.exited:
		return nil, fmt.Errorf("%s exited before listening", bin)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("%s did not report its address", bin)
	}
	c := newClient()
	defer c.CloseIdleConnections()
	var hz serve.Healthz
	if _, err := getJSON(c, d.base+"/healthz", &hz); err != nil || hz.Status != "ok" {
		d.stop()
		return nil, fmt.Errorf("daemon health check: %v", err)
	}
	return d, nil
}

// stop asks the daemon to drain and exit, and kills it if it has not
// exited after a few seconds. It returns once the process has ended.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// newClient returns a client holding at most one keep-alive
// connection, so each load-generating goroutine owns one connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// postJSON posts body and returns the status and the response bytes.
func postJSON(c *http.Client, url string, body []byte, header http.Header) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header[k] = v
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func getJSON(c *http.Client, url string, into any) (int, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(into)
}

// statsz reads the daemon's service counters.
func (d *daemon) statsz(c *http.Client) (serve.Statsz, error) {
	var st serve.Statsz
	_, err := getJSON(c, d.base+"/statsz", &st)
	return st, err
}

// traceparent is the W3C header that makes the daemon adopt id as the
// request id, so flight records can be matched to client requests.
func traceparent(id string) http.Header {
	return http.Header{"Traceparent": {"00-" + id + "-00000000000000a1-01"}}
}

// requestID is the 32-hex trace id of request i of a run.
func requestID(seed int64, i int) string { return fmt.Sprintf("%016x%016x", uint64(seed), uint64(i+1)) }

// flightPoller collects the daemon's flight records while a traced
// phase runs: the recorder keeps only its most recent records, so it
// is read every second on the observer's own connection.
type flightPoller struct {
	mu   sync.Mutex
	recs map[string]*flight.Record
	stop chan struct{}
	done chan struct{}
}

func pollFlight(d *daemon) *flightPoller {
	p := &flightPoller{recs: map[string]*flight.Record{}, stop: make(chan struct{}), done: make(chan struct{})}
	c := newClient()
	go func() {
		defer close(p.done)
		defer c.CloseIdleConnections()
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			p.read(c, d)
			select {
			case <-p.stop:
				p.read(c, d)
				return
			case <-t.C:
			}
		}
	}()
	return p
}

func (p *flightPoller) read(c *http.Client, d *daemon) {
	var page struct {
		Records []*flight.Record `json:"records"`
	}
	if _, err := getJSON(c, d.base+"/debug/flight", &page); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: reading flight records:", err)
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range page.Records {
		p.recs[r.ID] = r
	}
}

// finish stops polling after a last read and returns the records by
// request id.
func (p *flightPoller) finish() map[string]*flight.Record {
	close(p.stop)
	<-p.done
	return p.recs
}
