package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// sut is one child process under test and the HTTP client that drives it.
// The transport caps the open connections at nproc: one serves control and
// polling, the other queries or a subscriber.
type sut struct {
	cmd   *exec.Cmd
	stdin io.Closer
	url   string
	http  *http.Client
	tr    *tracer

	calls  atomic.Int64 // HTTP calls made
	failed atomic.Int64 // of which transport errors or non-2xx
}

// startSUT re-executes this binary as `serve` and waits until it listens.
func startSUT(w workload, seed int64, hz float64, workdir string, tr *tracer) (*sut, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"serve", "-seed", strconv.FormatInt(seed, 10), "-hz", fmt.Sprint(hz),
		"-retain", strconv.Itoa(w.retain), "-workdir", workdir}
	if w.durable {
		args = append(args, "-durable")
	}
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &sut{cmd: cmd, stdin: stdin, tr: tr}
	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if url, ok := strings.CutPrefix(sc.Text(), "READY "); ok {
				ready <- url
				break
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
		close(ready)
	}()
	select {
	case url, ok := <-ready:
		if !ok {
			s.stop()
			return nil, fmt.Errorf("child exited before it was ready")
		}
		s.url = url
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("child not ready after 30s")
	}
	n := runtime.NumCPU()
	if n < 2 {
		n = 2
	}
	s.http = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true,
	}}
	return s, nil
}

// stop closes the child's standard input, which makes it remove its data
// directory and exit, and waits for it; a child that lingers is killed.
func (s *sut) stop() {
	if s.http != nil {
		s.http.CloseIdleConnections()
	}
	_ = s.stdin.Close()
	done := make(chan struct{})
	go func() {
		_ = s.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
}

func (s *sut) pid() int { return s.cmd.Process.Pid }

// do makes one HTTP call, reads the whole body, and records a span. A
// transport error or a non-2xx status counts as a failed operation.
func (s *sut) do(ctx context.Context, span, method, path string, body []byte) ([]byte, error) {
	sp := s.tr.start(span)
	defer sp.end()
	s.calls.Add(1)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.url+path, rd)
	if err != nil {
		s.failed.Add(1)
		return nil, err
	}
	resp, err := s.http.Do(req)
	if err != nil {
		s.failed.Add(1)
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		s.failed.Add(1)
		return nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		s.failed.Add(1)
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func (s *sut) get(span, path string) ([]byte, error) {
	return s.do(context.Background(), span, http.MethodGet, path, nil)
}

func (s *sut) post(span, path string, body any) ([]byte, error) {
	var data []byte
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			return nil, err
		}
	}
	return s.do(context.Background(), span, http.MethodPost, path, data)
}

// whStats is the part of GET /api/warehouse/stats the driver reads.
type whStats struct {
	Events          int64 `json:"events"`
	SegmentsSpilled int64 `json:"segments_spilled"`
	Compactions     int64 `json:"compactions"`
	WALBytes        int64 `json:"wal_bytes"`
	DiskBytes       int64 `json:"disk_bytes"`
}

func (s *sut) stats() (whStats, error) {
	var st whStats
	data, err := s.get("http.stats", "/api/warehouse/stats")
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(data, &st)
}

// subscriber is one open /api/warehouse/subscribe stream, read by its own
// goroutine. Every frame is stamped with its receive time; keepAll decides
// whether all frames are kept or only the last one.
type subscriber struct {
	cancel  context.CancelFunc
	done    chan struct{}
	keepAll bool

	mu     sync.Mutex
	frames []viewFrame
	last   viewFrame
	count  int64
	bytes  int64
	err    error
}

type viewFrame struct {
	recv time.Time
	viewUpdate
}

type viewUpdate struct {
	Version    uint64    `json:"version"`
	Rows       []viewRow `json:"rows"`
	Resnapshot bool      `json:"resnapshot"`
	Shed       uint64    `json:"shed"`
	Error      string    `json:"error"`
}

type viewRow struct {
	Bucket string  `json:"bucket"`
	Source string  `json:"source"`
	Count  int64   `json:"count"`
	Value  float64 `json:"value"`
}

// subscribe opens a standing view and returns once its first frame, the
// backfilled snapshot, has arrived.
func (s *sut) subscribe(query string, keepAll bool) (*subscriber, error) {
	sp := s.tr.start("http.subscribe.open")
	defer sp.end()
	ctx, cancel := context.WithCancel(context.Background())
	s.calls.Add(1)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/api/warehouse/subscribe?"+query, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := s.http.Do(req)
	if err != nil {
		cancel()
		s.failed.Add(1)
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		s.failed.Add(1)
		return nil, fmt.Errorf("subscribe: status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	sub := &subscriber{cancel: cancel, done: make(chan struct{}), keepAll: keepAll}
	first := make(chan struct{})
	go func() {
		defer close(sub.done)
		defer resp.Body.Close()
		rd := bufio.NewReaderSize(resp.Body, 1<<20)
		for {
			line, err := rd.ReadBytes('\n')
			recv := time.Now()
			if len(bytes.TrimSpace(line)) > 0 {
				f := viewFrame{recv: recv}
				jerr := json.Unmarshal(line, &f.viewUpdate)
				sub.mu.Lock()
				if jerr != nil {
					sub.err = fmt.Errorf("subscribe: bad frame: %w", jerr)
				}
				if sub.keepAll {
					sub.frames = append(sub.frames, f)
				}
				sub.last = f
				sub.bytes += int64(len(line))
				if sub.count++; sub.count == 1 {
					close(first)
				}
				sub.mu.Unlock()
			}
			if err != nil {
				if ctx.Err() == nil {
					sub.mu.Lock()
					sub.err = fmt.Errorf("subscribe: stream ended: %w", err)
					sub.mu.Unlock()
				}
				return
			}
		}
	}()
	select {
	case <-first:
		return sub, nil
	case <-sub.done:
	case <-time.After(30 * time.Second):
	}
	sub.close()
	s.failed.Add(1)
	return nil, fmt.Errorf("subscribe: no first frame")
}

// lastFrame returns the newest frame and how many have arrived.
func (sub *subscriber) lastFrame() (viewFrame, int64) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return sub.last, sub.count
}

// close ends the stream and waits for its reader; the fields may be read
// without the lock afterwards.
func (sub *subscriber) close() {
	sub.cancel()
	<-sub.done
}
