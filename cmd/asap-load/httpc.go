package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// client is one keep-alive HTTP/1.1 connection to one server process.
// Requests on it are serial, so a series' requests arrive in order.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
	buf  bytes.Buffer
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

// response is valid until the client's next request.
type response struct {
	status int
	ctype  string
	body   []byte
}

func (c *client) do(method, path string, body []byte) (response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return response{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return response{}, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	return response{status: resp.StatusCode, ctype: resp.Header.Get("Content-Type"), body: c.buf.Bytes()}, nil
}

// getJSON fetches path and decodes a 200 JSON body into v.
func (c *client) getJSON(path string, v interface{}) error {
	resp, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if resp.status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, resp.status, bytes.TrimSpace(resp.body))
	}
	return json.Unmarshal(resp.body, v)
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// frameSig is what the harness keeps of a frame: its sequence, window,
// and a 64-bit FNV-1a hash of its values' bits.
type frameSig struct {
	seq, window int
	hash        uint64
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func hashValues(vals []float64) uint64 {
	h := uint64(fnvOffset64)
	for _, v := range vals {
		h = hashValue(h, v)
	}
	return h
}

func hashValue(h uint64, v float64) uint64 {
	b := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		h ^= b & 0xff
		h *= fnvPrime64
		b >>= 8
	}
	return h
}

// parseFrame reads the frame JSON of GET /frame and of an SSE frame
// event. Values are decoded with strconv as they are read and only
// their hash is kept, so memory stays bounded however many frames
// arrive. ok is false for the "null" of a series with no frame yet.
func parseFrame(b []byte) (sig frameSig, ok bool, err error) {
	b = bytes.TrimSpace(b)
	if bytes.Equal(b, []byte("null")) {
		return frameSig{}, false, nil
	}
	i := bytes.Index(b, []byte(`"values":[`))
	if i < 0 {
		return frameSig{}, false, fmt.Errorf("frame: no values")
	}
	rest := b[i+len(`"values":[`):]
	end := bytes.IndexByte(rest, ']')
	if end < 0 {
		return frameSig{}, false, fmt.Errorf("frame: unterminated values")
	}
	h := uint64(fnvOffset64)
	for vals := rest[:end]; len(vals) > 0; {
		num := vals
		if j := bytes.IndexByte(vals, ','); j >= 0 {
			num, vals = vals[:j], vals[j+1:]
		} else {
			vals = nil
		}
		v, err := strconv.ParseFloat(string(num), 64)
		if err != nil {
			return frameSig{}, false, fmt.Errorf("frame value: %w", err)
		}
		h = hashValue(h, v)
	}
	sig.hash = h
	if sig.window, err = intField(b, `"window":`); err != nil {
		return frameSig{}, false, err
	}
	if sig.seq, err = intField(b, `"sequence":`); err != nil {
		return frameSig{}, false, err
	}
	return sig, true, nil
}

func intField(b []byte, key string) (int, error) {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return 0, fmt.Errorf("frame: no %s", key)
	}
	b = b[i+len(key):]
	j := 0
	for j < len(b) && b[j] >= '0' && b[j] <= '9' {
		j++
	}
	return strconv.Atoi(string(b[:j]))
}

// seen is one frame a client received.
type seen struct {
	sig frameSig
	at  time.Time
}

// sseClient is the one GET /stream connection: it subscribes to every
// series and records each frame event as it arrives, per series in
// sequence order.
type sseClient struct {
	tr   *http.Transport
	body io.ReadCloser
	done chan struct{}

	mu      sync.Mutex
	frames  [][]seen // by series index
	bytes   int64    // frame event bytes received
	errs    []string // protocol failures: eviction, drops, bad frames, reordering
	closing bool
}

// subscribe opens the stream to every series in names and starts its
// reader.
func subscribe(base string, names []string, spans *spanRecorder) (*sseClient, error) {
	tr := &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}
	resp, err := (&http.Client{Transport: tr}).Get(base + "/stream?series=" + strings.Join(names, ","))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET /stream: status %d", resp.StatusCode)
	}
	index := make(map[string]int, len(names))
	for i, n := range names {
		index[n] = i
	}
	s := &sseClient{tr: tr, body: resp.Body, done: make(chan struct{}), frames: make([][]seen, len(names))}
	go func() {
		defer close(s.done)
		s.read(bufio.NewReaderSize(resp.Body, 64<<10), index, spans)
	}()
	return s, nil
}

func (s *sseClient) fail(format string, args ...interface{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.errs) < 10 {
		s.errs = append(s.errs, fmt.Sprintf(format, args...))
	}
}

// read parses the event stream until the connection closes.
func (s *sseClient) read(br *bufio.Reader, index map[string]int, spans *spanRecorder) {
	var event, id string
	var data []byte
	size := 0
	var start time.Time
	for {
		line, err := readLine(br)
		if err != nil {
			s.mu.Lock()
			closing := s.closing
			s.mu.Unlock()
			if !closing {
				s.fail("stream ended: %v", err)
			}
			return
		}
		if start.IsZero() {
			start = time.Now()
		}
		size += len(line) + 1
		switch {
		case len(line) == 0:
			if event != "" {
				s.dispatch(event, id, data, size, start, index, spans)
			}
			event, id, data, size, start = "", "", data[:0], 0, time.Time{}
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("id: ")):
			id = string(line[len("id: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			data = append(data[:0], line[len("data: "):]...)
		}
	}
}

// dispatch handles one complete event; start is when its first line
// arrived, and its receipt time is now, when its last line has.
func (s *sseClient) dispatch(event, id string, data []byte, size int, start time.Time, index map[string]int, spans *spanRecorder) {
	now := time.Now()
	switch event {
	case "frame":
		i := strings.LastIndexByte(id, '@')
		if i <= 0 {
			s.fail("frame event with bad id %q", id)
			return
		}
		si, ok := index[id[:i]]
		if !ok {
			s.fail("frame for unsubscribed series %q", id[:i])
			return
		}
		sig, ok, err := parseFrame(data)
		if err != nil || !ok {
			s.fail("series %s: bad frame event: %v", id[:i], err)
			return
		}
		s.record(si, sig, size, id, now)
		spans.add("client.sse_frame", laneSSE, start, now.Sub(start), "series", id[:i], "sequence", sig.seq)
	case "bye":
		s.fail("subscriber evicted or server draining")
	case "dropped":
		s.fail("series dropped: %s", data)
	}
}

func (s *sseClient) record(si int, sig frameSig, size int, id string, now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fs := s.frames[si]
	if n := len(fs); n > 0 && fs[n-1].sig.seq >= sig.seq {
		if len(s.errs) < 10 {
			s.errs = append(s.errs, fmt.Sprintf("%s arrived after sequence %d", id, fs[n-1].sig.seq))
		}
		return
	}
	s.frames[si] = append(fs, seen{sig: sig, at: now})
	s.bytes += int64(size)
}

// latest returns the highest sequence received for series si.
func (s *sseClient) latest(si int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fs := s.frames[si]; len(fs) > 0 {
		return fs[len(fs)-1].sig.seq
	}
	return 0
}

// close ends the stream and waits for the reader to exit.
func (s *sseClient) close() {
	s.mu.Lock()
	s.closing = true
	s.mu.Unlock()
	s.body.Close()
	<-s.done
	s.tr.CloseIdleConnections()
}

// readLine returns the next line without its "\n", however long.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		long := append([]byte(nil), line...)
		for err == bufio.ErrBufferFull {
			line, err = br.ReadSlice('\n')
			long = append(long, line...)
		}
		line = long
	}
	if err != nil {
		return nil, err
	}
	return line[:len(line)-1], nil
}
