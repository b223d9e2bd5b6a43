package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"
)

// recorder is the http.ResponseWriter the benchmark hands straight to
// serve.Server's handler, so no socket is opened. It keeps the body and the
// time each newline-terminated line was written: the generate handler
// encodes one NDJSON event per Write and flushes it, so a line's write time
// is when the token left the server.
type recorder struct {
	header http.Header
	code   int
	body   bytes.Buffer
	lineAt []time.Time
}

func (r *recorder) Header() http.Header {
	if r.header == nil {
		r.header = make(http.Header)
	}
	return r.header
}

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	now := time.Now()
	for _, b := range p {
		if b == '\n' {
			r.lineAt = append(r.lineAt, now)
		}
	}
	return r.body.Write(p)
}

// Flush implements http.Flusher; writes are already visible.
func (r *recorder) Flush() {}

// post sends one JSON request through the handler and returns the reply.
func post(h http.Handler, path string, body []byte) *recorder {
	rec := &recorder{}
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// canonical re-encodes a JSON object without the named fields, with keys
// sorted: the bytes of a reply that must not depend on timing or batching.
func canonical(line []byte, drop ...string) ([]byte, error) {
	var obj map[string]any
	if err := json.Unmarshal(line, &obj); err != nil {
		return nil, err
	}
	for _, k := range drop {
		delete(obj, k)
	}
	return json.Marshal(obj) // encoding/json sorts map keys
}

// predictReply is one /v1/predict exchange as the client saw it.
type predictReply struct {
	due, sent, done time.Time
	queueMS         float64
	totalMS         float64 // the server's own time from handler entry to reply
	batch           int
	canon           []byte // reply minus its timing and batch fields
	err             error
}

type predictBody struct {
	Model   string `json:"model"`
	Mode    string `json:"mode"`
	Context []int  `json:"context"`
}

// predict sends one /v1/predict request and decodes the reply; any status
// but 200 or an undecodable body is an error.
func predict(h http.Handler, body []byte) predictReply {
	var out predictReply
	out.sent = time.Now()
	rec := post(h, "/v1/predict", body)
	out.done = time.Now()
	if rec.code != http.StatusOK {
		out.err = fmt.Errorf("status %d: %s", rec.code, bytes.TrimSpace(rec.body.Bytes()))
		return out
	}
	var reply struct {
		BatchSize int     `json:"batch_size"`
		QueueMS   float64 `json:"queue_ms"`
		TotalMS   float64 `json:"total_ms"`
	}
	if err := json.Unmarshal(rec.body.Bytes(), &reply); err != nil {
		out.err = fmt.Errorf("decoding reply: %w", err)
		return out
	}
	out.batch, out.queueMS, out.totalMS = reply.BatchSize, reply.QueueMS, reply.TotalMS
	out.canon, out.err = canonical(rec.body.Bytes(), "batch_size", "queue_ms", "total_ms")
	return out
}

type generateBody struct {
	Model     string `json:"model"`
	Mode      string `json:"mode"`
	Prompt    []int  `json:"prompt"`
	MaxTokens int    `json:"max_tokens"`
}

// encode marshals a request body; structs of strings and ints always encode.
func encode(body any) []byte {
	out, _ := json.Marshal(body)
	return out
}

// genReply is one streamed /v1/generate exchange as the client saw it.
type genReply struct {
	start, end time.Time
	tokenAt    []time.Time // arrival time of each token line
	prompt     int
	canon      []byte // every token line, then the final line minus total_ms
	err        error
}

// generate streams one /v1/generate request. The reply must be 200 with
// exactly maxTokens token lines and a final line that finished on length;
// anything else (429, an error or canceled final) is an error.
func generate(h http.Handler, b generateBody) genReply {
	out := genReply{prompt: len(b.Prompt)}
	out.start = time.Now()
	rec := post(h, "/v1/generate", encode(b))
	out.end = time.Now()
	if rec.code != http.StatusOK {
		out.err = fmt.Errorf("status %d: %s", rec.code, bytes.TrimSpace(rec.body.Bytes()))
		return out
	}
	lines := bytes.Split(bytes.TrimSuffix(rec.body.Bytes(), []byte("\n")), []byte("\n"))
	if len(lines) != b.MaxTokens+1 || len(rec.lineAt) != len(lines) {
		out.err = fmt.Errorf("got %d lines, want %d token lines and a final line", len(lines), b.MaxTokens)
		return out
	}
	var final struct {
		Done         bool   `json:"done"`
		FinishReason string `json:"finish_reason"`
		Tokens       int    `json:"tokens"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &final); err != nil {
		out.err = fmt.Errorf("decoding final line: %w", err)
		return out
	}
	if !final.Done || final.FinishReason != "length" || final.Tokens != b.MaxTokens {
		out.err = fmt.Errorf("final line %s", lines[len(lines)-1])
		return out
	}
	last, err := canonical(lines[len(lines)-1], "total_ms")
	if err != nil {
		out.err = err
		return out
	}
	out.canon = append(bytes.Join(lines[:len(lines)-1], []byte("\n")), '\n')
	out.canon = append(out.canon, last...)
	out.tokenAt = rec.lineAt[:b.MaxTokens]
	return out
}

// sampleIndices picks up to n distinct indices from [0, total) with pick.
func sampleIndices(total, n int, pick func(int) int) []int {
	if n > total {
		n = total
	}
	seen := make(map[int]bool, n)
	out := make([]int, 0, n)
	for len(out) < n {
		i := pick(total)
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	return out
}
